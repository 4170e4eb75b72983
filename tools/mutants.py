"""Mutant registry: small faults that named tests must catch, each checked on a copy.

Usage, from the repository root:

    python3 tools/mutants.py                # every registered mutant
    python3 tools/mutants.py NAME [NAME..]  # the named ones
    python3 tools/mutants.py --list

Each entry names a file of the repository, an exact snippet that occurs in it
once, the snippet's replacement, and the test ids that must fail with the
replacement in place.  The runner first runs every id it will use on an
unchanged copy of ``src``, ``tests`` and ``pyproject.toml``, which must pass.
Then, for each entry, it makes a fresh copy, applies the replacement and runs
only that entry's ids, with hypothesis at a fixed seed.  A mutant is killed
when pytest reports a failing test; a snippet that is not found exactly once,
or an id pytest cannot collect, is an error.  The runner exits 0 only if every
mutant is killed.  It uses the standard library alone and is not part of the
tier-1 suite.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
HYPOTHESIS_SEED = "0"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    fault: str  # what the replacement breaks


_SOLVER = "src/collar/solver.py"
_MODELS = "src/collar/models.py"
_BARRIERS = "src/collar/barriers.py"
_T = "tests/test_solver.py::"
_B = "tests/test_barriers.py::"
_M = "tests/test_models.py::"

MUTANTS = [
    # The lean Newton step: imposed rows folded into the residual, the scaled
    # right-hand side in one pass, and the depth-0 path.
    Mutant("rscale-nonzero-at-imposed-rows", _SOLVER,
           "        rscale[dir_rows] = 0.0\n", "",
           (f"{_T}TestStepImplicit::test_constant_state_is_fixed_point",
            f"{_T}TestPrefactoredLinearPath::test_matches_generic_path_within_newton_tolerance",),
           "an imposed row's residual takes the stencil term, so Newton moves it off its trace"),
    Mutant("base-without-traces", _SOLVER,
           "    base[dir_rows] = bc  #", "    base[dir_rows] = base[dir_rows]  #",
           (f"{_T}TestBatchedMembers::test_only_one_member_halves",
            f"{_T}TestBatchedMembers::test_halved_member_relaxes_after_clean_steps"),
           "the residual and the linear right-hand side hold the old traces, not this step's"),
    Mutant("retry-from-stepped-rows", _SOLVER,
           "substeps(state, stepping, ends, bc, guess)",
           "substeps(state if new is None else new, stepping, ends, bc, guess)",
           (f"{_T}TestBatchedMembers::test_only_one_member_halves",),
           "a member that fails at one level retries from its failed rows, not its old ones"),
    Mutant("negw-sign-flipped", _SOLVER,
           "        self.negw = -w\n", "        self.negw = w\n",
           (f"{_T}TestStepImplicit::test_constant_state_is_fixed_point",
            f"{_T}TestBatchedMembers::test_only_one_member_halves"),
           "the Newton update points up the residual"),
    Mutant("newton-tol-not-coerced", _SOLVER,
           "batch.starts, float(scheme.newton_tol)", "batch.starts, scheme.newton_tol",
           (f"{_T}TestStepImplicit::test_newton_failure_raises_step_error",),
           "an integer newton_tol accepts every step, as int.__ge__(float) is NotImplemented"),
    # Earlier faults, from the change log.
    Mutant("upper-band-times-1.001", "src/collar/operators.py",
           "    up[inner] = area[1:] / (h * vol[inner])",
           "    up[inner] = 1.001 * area[1:] / (h * vol[inner])",
           (f"{_T}TestProperties::test_flux_balance_within_newton_budget",),
           "the stencil is no longer conservative, so flux balance fails"),
    Mutant("ball-centre-diagonal", "src/collar/operators.py",
           "        di[0] = -up[0]", "        di[0] = -1.01 * up[0]",
           (f"{_T}TestProperties::test_flux_balance_within_newton_budget",),
           "the ball centre's row leaks mass"),
    Mutant("keep-coupling-before-imposed-row", _SOLVER,
           "        e[dir_rows] = e[dir_rows - 1] = 0.0  #", "        e[dir_rows] = 0.0  #",
           (f"{_T}TestPrefactoredLinearPath::test_direct_step_residual_stays_at_rounding",),
           "the step matrix keeps the column of the imposed row above its inner row"),
    Mutant("columns-lo-up-swapped", _SOLVER,
           "np.where(inner > dir_rows, op.lo[inner], op.up[inner])",
           "np.where(inner > dir_rows, op.up[inner], op.lo[inner])",
           (f"{_T}TestPrefactoredLinearPath::test_matches_generic_path_within_newton_tolerance",),
           "a linear step moves the wrong coupling of an imposed column to its right-hand side"),
    Mutant("density-weights-shifted", _SOLVER,
           "self.rho.rho(grid.nodes[m0 + free_local])",
           "self.rho.rho(grid.nodes[m0 + free_local + 1])",
           (f"{_T}TestProperties::test_flux_balance_within_newton_budget",),
           "each free row weighs its mass by the next node's density"),
    Mutant("imposed-row-weight-not-one", _SOLVER,
           "        w[dir_rows] = 1.0\n", "",
           (f"{_T}TestLinearStepProperties::test_direct_step_is_the_slope_solve",),
           "an imposed row of the linear step matrix is scaled by its cell's weight"),
    Mutant("linear-stencil-times-1.0001", _SOLVER,
           "factor_spd(w + slope * kdi, slope * e)",
           "factor_spd(w + 1.0001 * slope * kdi, slope * e)",
           (f"{_T}TestPrefactoredLinearPath::test_matches_generic_path_within_newton_tolerance",),
           "the factored linear step matrix no longer matches its residual, so a step "
           "takes more than its one solve"),
    # Exact majorant hypotheses and the closed-form Miller amplitude.
    Mutant("simpson-weight-2", _MODELS,
           "4.0 * mid * majorant(mid)", "2.0 * mid * majorant(mid)",
           (f"{_B}TestBoundaryPotential::test_underflowing_pieces_stop_early",
            f"{_B}TestBoundaryPotential::test_collar_integral_is_exact_on_piecewise_linear"),
           "the tabulated collar integral is no longer exact on a quadratic piece"),
    Mutant("dominance-without-table-knots", _MODELS,
           "at = np.sort(np.concatenate((etas, np.abs(k - bounds).ravel())))",
           "at = etas",
           (f"{_M}TestDensityModel::test_spike_between_majorant_knots_is_not_dominated",
            f"{_M}TestDensityModel::test_dominance_is_the_dense_sample_verdict"),
           "dominance is checked at the majorant's knots only, so a density kink between them escapes"),
    # The potential table: rows filled as read, closed-form dyadic pieces.  A
    # deterministic test comes first, so that pytest -x stops before hypothesis shrinks.
    Mutant("closed-form-cubic-coefficient-third", _BARRIERS,
           "(7.0 / 24.0) * s * hi", "(1.0 / 3.0) * s * hi",
           (f"{_B}TestBoundaryPotential::test_table_matches_loop_on_certify_density",
            f"{_B}TestBoundaryPotential::test_closed_form_pieces_match_gauss"),
           "a closed-form piece integrates s eta^2 over [0, hi], not over [hi/2, hi]"),
    Mutant("closed-form-past-the-first-stretch", _BARRIERS,
           "gauss = hi > end", "gauss = hi > 2 * end",
           (f"{_B}TestBoundaryPotential::test_table_matches_loop_below_a_positive_first_knot",
            f"{_B}TestBoundaryPotential::test_closed_form_pieces_match_gauss",
            f"{_B}TestBoundaryPotential::test_table_matches_loop_on_piecewise_linear"),
           "the piece straddling the stretch's end is taken as if the majorant were linear on it"),
    Mutant("flat-start-takes-the-next-slope", _BARRIERS,
           "if k[0] != 0.0 or k.size == 1 else", "if k.size == 1 else",
           (f"{_B}TestBoundaryPotential::test_table_matches_loop_below_a_positive_first_knot",
            f"{_B}TestBoundaryPotential::test_closed_form_pieces_match_gauss",
            f"{_B}TestBoundaryPotential::test_table_matches_loop_on_piecewise_linear"),
           "below a positive first knot the majorant is taken as the line through its first "
           "two values, not as flat"),
    Mutant("row-past-the-knot-not-filled", _BARRIERS,
           "np.concatenate((np.ravel(j), j[capped > self._table_d[j]] + 1))", "np.ravel(j)",
           (f"{_B}test_certify_fills_only_the_table_rows_it_reads",
            f"{_B}TestBoundaryPotential::test_rows_filled_on_read_match_the_full_table"),
           "a query between two rows interpolates towards a row that was never computed"),
    Mutant("miller-bracket-e-minus-n", _BARRIERS,
           "math.exp(-4.0 * n)", "math.exp(-n)",
           (f"{_B}TestMillerBarrier::test_bump_laplacian_worked_value",
            f"{_B}TestMillerBarrier::test_amplitude_meets_minus_one_at_the_least_sampled_laplacian"),
           "the bump's amplitude is taken at s = R's exponent, too small to reach -1 at 2R"),
]


def _copy_tree(dest: Path) -> Path:
    dest.mkdir(parents=True)
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)
    return dest


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    """Runs ``tests`` in ``tree`` and stops at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests]
    return subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)


def _summary(done: subprocess.CompletedProcess) -> str:
    lines = done.stdout.strip().splitlines() or done.stderr.strip().splitlines() or [""]
    return lines[-1]


def check(mutant: Mutant, work: Path) -> tuple[bool, str]:
    """``(killed, detail)`` for one mutant applied to a fresh copy under ``work``."""
    tree = _copy_tree(work / mutant.name)
    path = tree / mutant.file
    text = path.read_text()
    found = text.count(mutant.snippet)
    if found != 1:
        return False, f"snippet found {found} times in {mutant.file}"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    done = _pytest(tree, mutant.tests)
    if done.returncode == 1:  # pytest: some test failed
        return True, _summary(done)
    return False, f"pytest exit {done.returncode}: {_summary(done)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.fault}")
        return 0
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or MUTANTS
    t0 = time.perf_counter()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="collar-mutants-") as tmp:
        work = Path(tmp)
        ids = list(dict.fromkeys(t for m in chosen for t in m.tests))
        clean = _pytest(_copy_tree(work / "unchanged"), ids)
        if clean.returncode != 0:
            print(f"unchanged tree fails its ids: {_summary(clean)}")
            return 1
        for m in chosen:
            killed, detail = check(m, work)
            print(f"{'killed ' if killed else 'SURVIVED'} {m.name}: {detail}", flush=True)
            if not killed:
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
