"""Golden output documents of the four construction commands, compared byte for byte.

``tests/data/cli_golden/`` holds fixed input documents (a kappa corner, a
random ring and two random strips, all from ``helpers``) and the document
each construction command wrote from them.  A construction must give the
same bits for the same input, so the comparison is exact.  Running this
file as a script rewrites the inputs and outputs from the current code; do
that only to add a case, never to absorb a difference.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from smoothpatch.cli import main
from smoothpatch.continuity import EdgeCorrespondence
from smoothpatch.surfio import SurfaceDocument, save_surface

from helpers import kappa_corner, random_ring, random_strips

DATA = Path(__file__).parent / "data" / "cli_golden"

# output document -> (the command's arguments before -o, what it prints after the path)
COMMANDS = {
    "complete_4patch.json": (["complete-4patch", "corner.json"], "(r3 bi-degree (5, 5))"),
    "fill_hole.json": (["fill-hole", "ring.json"], "(r5 bi-degree (5, 5))"),
    "fill_hole_deg6.json": (["fill-hole", "ring.json", "--deg6"], "(r5 bi-degree (6, 6))"),
    "fillet.json": (["fillet", "strip_a.json", "strip_b.json", "-n", "4"], "(4 fillet patches)"),
}


def _write_inputs(folder: Path) -> None:
    r1, r2, r4, _, _ = kappa_corner(np.random.default_rng(7))
    save_surface(SurfaceDocument(patches={"r1": r1, "r2": r2, "r4": r4}), folder / "corner.json")
    patches, _ = random_ring(np.random.default_rng(3))
    joins = {"v": ((1, 2), (2, 3), (7, 8), (8, 9)), "u": ((1, 4), (4, 7), (3, 6), (6, 9))}
    edges = [EdgeCorrespondence(f"{side}1", f"{side}0", a=f"r{a}", b=f"r{b}")
             for side, pairs in joins.items() for a, b in pairs]
    save_surface(SurfaceDocument(patches={f"r{k}": p for k, p in patches.items()}, edges=edges),
                 folder / "ring.json")
    for label, strip in zip("ab", random_strips(np.random.default_rng(5), 4)):
        save_surface(SurfaceDocument(patches={f"{label}{r}": p for r, p in enumerate(strip)}),
                     folder / f"strip_{label}.json")


def _run(name: str, out: Path) -> None:
    argv = [str(DATA / arg) if arg.endswith(".json") else arg for arg in COMMANDS[name][0]]
    assert main(argv + ["-o", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_construction_command_writes_the_golden_document(name, tmp_path, capsys):
    out = tmp_path / name
    _run(name, out)
    assert capsys.readouterr().out == f"wrote {out} {COMMANDS[name][1]}\n"
    assert out.read_bytes() == (DATA / name).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    _write_inputs(DATA)
    for name in COMMANDS:
        _run(name, DATA / name)
    sys.exit(0)
