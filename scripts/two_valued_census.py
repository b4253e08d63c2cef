"""Build the canonical two-valued recoding (Sturmian base, r = sqrt(2),
p = 1, q = sqrt(2), eps = delta = 1/10) and print its return-time census
and occupation estimates."""

from fractions import Fraction

from suspshift.instances import build_two_valued_instance
from suspshift.quadratic import qr
from suspshift.subshifts import word_str


def main():
    rf = build_two_valued_instance()
    print(f"marker {word_str(rf.marker.word)} gaps {sorted(rf.marker.gap_counts())}")
    for atom in rf.atoms:
        print(f"atom gap={atom.gap} k={atom.k} l={atom.l} "
              f"remainder={float(atom.remainder):.6f}")
    pt = rf.flow.base.point(qr(Fraction(2, 11)))
    census = rf.return_census(pt, 10000)
    counts = {}
    for sym, _ in census:
        counts[sym] = counts.get(sym, 0) + 1
    print("class,count")
    for sym, label in ((1, "p"), (0, "q"), (2, "remainder")):
        print(f"{label},{counts.get(sym, 0)}")
    window = rf.sample_point(99).block(0, 10000)
    print("ocap estimates:",
          {s: round(window.count(s) / 10000, 4) for s in (0, 1, 2)})


if __name__ == "__main__":
    main()
