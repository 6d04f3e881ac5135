"""Run every check of the command line on algebra descriptions, in one process.

    python scripts/check_all.py [ALGEBRA.json [OBJECTS.json ...]]

With no arguments it checks each bundled algebra on its default objects.
For each description it runs ext-table, check-exceptional, glue-hearts,
dim-formula, yoneda-oracle and bondal-check one after the other, prints
each text report under a header, and ends with one status line per job.
The jobs share the description's algebra, objects and memos (see the
cache policy of heartglue.jsonio), so each job after the first reuses
the resolutions and Hom complexes the earlier ones built.

Exit status: the largest exit status of any job (0 every check passed,
1 a check failed, 2 an input did not parse or validate; yoneda-oracle
exits 2 on a list with shifted objects, as it works on plain modules).
"""

import sys

from heartglue.cli import CORPUS_NAMES, JobSpec, corpus_path, run

COMMANDS = ("ext-table", "check-exceptional", "glue-hearts", "dim-formula",
            "yoneda-oracle", "bondal-check")


def main(argv: list[str]) -> int:
    if argv:
        descriptions = [(argv[0], tuple(argv[1:]))]
    else:
        descriptions = [(str(corpus_path(name)), ())
                        for name in CORPUS_NAMES]
    codes, statuses = [], []
    for algebra, objects in descriptions:
        for command in COMMANDS:
            code, text = run(JobSpec(command, algebra, objects))
            print(f"== {command} {algebra} ==")
            print(text, end="")
            codes.append(code)
            statuses.append(f"exit {code}  {command} {algebra}")
    print()
    print("\n".join(statuses))
    return max(codes)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
