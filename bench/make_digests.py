"""Regenerate bench/digests.tsv, the stored digests the benchmark checks outputs against.

Run from the repository root:  python3 bench/make_digests.py

Every polynomial is computed by the coloring route.  Before any digest is
written, the axiomatic evaluator is checked against the colorings on every
path of size 4..7, and the orientation expansion against the colorings on
every path of size 4..6; a mismatch aborts without writing.  The n = 7
coloring sweep takes about a minute.

Line formats (tab-separated):
  path       <word> <area> <m> <e> <s> <p>   every Schroeder path of size 4..7
  chromatic  <word> <e>               every Dyck path of size 4..6
  hl         <mu>   <s>               every partition mu with |mu| <= 6
  nabla-e    <n>    <e>               n = 1..5
  nabla-p    <n>    <s>               n = 1..4
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from digest import digest  # noqa: E402

from lltpaths import harmonics, relations  # noqa: E402
from lltpaths.llt import chromatic, llt, orientation_e_expansion  # noqa: E402
from lltpaths.partitions import partitions_of  # noqa: E402
from lltpaths.schroeder import area, enumerate_paths  # noqa: E402

PATH_SIZES = range(4, 8)
CHROMATIC_SIZES = range(4, 7)
HL_MAX = 6
NABLA_E_MAX = 5
NABLA_P_MAX = 4


def main() -> int:
    lines = []
    for n in PATH_SIZES:
        for p in enumerate_paths(n):
            f = llt(p)
            e = f.convert("e")
            if not (e - relations.recursion_evaluate(p)).is_zero():
                print(f"recursion disagrees with colorings on {p.word}", file=sys.stderr)
                return 1
            if n < 7 and not (e.shift_q(1) - orientation_e_expansion(p)).is_zero():
                print(f"orientations disagree with colorings on {p.word}", file=sys.stderr)
                return 1
            cols = [digest(f.convert(b).to_obj()) for b in ("m", "e", "s", "p")]
            lines.append("\t".join(["path", p.word, str(area(p)), *cols]))
    for n in CHROMATIC_SIZES:
        for p in enumerate_paths(n, dyck_only=True):
            lines.append(f"chromatic\t{p.word}\t{digest(chromatic(p).convert('e').to_obj())}")
    for k in range(1, HL_MAX + 1):
        for mu in partitions_of(k):
            key = ",".join(map(str, mu))
            lines.append(f"hl\t{key}\t{digest(harmonics.hall_littlewood(mu).to_obj())}")
    for n in range(1, NABLA_E_MAX + 1):
        lines.append(f"nabla-e\t{n}\t{digest(harmonics.nabla_e(n).to_obj())}")
    for n in range(1, NABLA_P_MAX + 1):
        lines.append(f"nabla-p\t{n}\t{digest(harmonics.nabla_p(n).to_obj())}")
    (Path(__file__).resolve().parent / "digests.tsv").write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} digest lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
