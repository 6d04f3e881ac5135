"""Print the shifted-hom tables of the bundled algebras.

Rows scan every ordered pair of indecomposable projectives and simples;
only the nonzero spaces are shown.
"""

from heartglue.cli import default_window, load_corpus
from heartglue.derived import hom_scan
from heartglue.reps import projective, simple


def label(kind, i):
    return f"{kind}{i}"


def main():
    corpus = load_corpus()
    for name in sorted(corpus):
        alg = corpus[name]
        w = default_window(alg, 2)
        objs = [(label("P", i), projective(alg, i))
                for i in range(1, alg.vertex_count + 1)]
        objs += [(label("S", i), simple(alg, i))
                 for i in range(1, alg.vertex_count + 1)]
        print(f"== {name} (window {w}) ==")
        for la, a in objs:
            for lb, b in objs:
                hits = [f"[{n}]: {d}" for n, d in hom_scan(a, b, w)
                        if n >= -w]
                if hits:
                    print(f"  Hom({la}, {lb}) " + ", ".join(hits))
        print()


if __name__ == "__main__":
    main()
