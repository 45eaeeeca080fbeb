"""What a fresh process imports: no record generates code, so nothing imports ``dataclasses``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import smoothpatch

SRC = Path(smoothpatch.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"

# the public names of the package, as ``from smoothpatch import *`` binds them
STAR_NAMES = [
    "BezierPatch", "CompatReport", "CornerConfig", "CornerConsistencyError",
    "DegenerateLinkError", "DegenerateParametrizationError", "EdgeChecks", "EdgeCorrespondence",
    "G0_TOL", "G1_TOL", "G2_TOL", "GeometryError", "HoleFillParams", "LAMBDA_MIN",
    "LinkCoefficients", "NORMAL_ANGLE_TOL", "NinePatchRing", "PreconditionError", "RANK_TOL",
    "SurfaceDocument", "SurfaceFormatError", "TwistCheck", "bernstein_basis", "bezier",
    "boundary_row", "bounding_diagonal", "build_fillet", "check_edges", "check_g1_edge",
    "check_g2_edge", "check_vertex_g1", "check_vertex_g2", "complete_fourth_patch", "construct",
    "continuity", "default_interior", "elevate_row", "eval_grid", "export_obj", "fill_hole",
    "fill_hole_deg6", "fourth_patch_twist_check", "g0_gap", "g1_band_offsets",
    "hole_constraint_residuals", "hole_twist_checks", "load_surface", "save_surface",
    "solve_hole_params", "split_grid", "split_patch", "surfio", "theorem1_residuals",
    "theorem2_residuals", "transform_patch",
]


def _fresh(script: str, *args: str):
    """The JSON that ``script`` prints as its last line, run by a new interpreter under -W error."""
    done = subprocess.run([sys.executable, "-W", "error", "-c", script, *args],
                          capture_output=True, text=True, cwd=SRC, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_COMMANDS = """
import contextlib, io, json, os, sys, tempfile
def loaded():
    return "dataclasses" in sys.modules
stages = {"start": loaded()}
from smoothpatch.cli import main
stages["cli"] = loaded()
golden, corner, tmp = sys.argv[1], sys.argv[2], tempfile.mkdtemp()
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["check-g1", golden], ["check-g2", golden, "--report", os.path.join(tmp, "r.json")],
                 ["export", golden, "--obj", os.path.join(tmp, "out.obj"), "--samples", "8,8"],
                 ["complete-4patch", corner, "-o", os.path.join(tmp, "c.json")]):
        codes.append(main(argv))
stages["commands"] = loaded()
print(json.dumps({"codes": codes, "stages": stages}))
"""


def test_a_process_that_runs_every_kind_of_command_imports_no_dataclasses():
    got = _fresh(_COMMANDS, str(DATA / "mixed_grid.json"), str(DATA / "cli_golden" / "corner.json"))
    assert got["codes"] == [2, 2, 0, 0]
    assert got["stages"] == {"start": False, "cli": False, "commands": False}


def test_no_module_of_the_package_mentions_dataclass():
    for path in sorted((SRC / "smoothpatch").glob("*.py")):
        assert "dataclass" not in path.read_text(encoding="utf-8"), path.name


_STAR = """
import json
star = {}
exec("from smoothpatch import *", star)
print(json.dumps(sorted(k for k in star if k != "__builtins__")))
"""


def test_star_import_binds_the_public_names():
    assert _fresh(_STAR) == STAR_NAMES
