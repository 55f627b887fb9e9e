"""A mutation catalogue: small faults planted in the source, each declared
with the `verify --config` run that must catch it.  A row names a file of the
package, a text that occurs exactly once in it, its replacement, and the
config.  The test checks that the config passes on the tree, then edits a
copy of the package and runs the config on the copy in a child process: it
must FAIL at least one check.  The tree itself is never edited, and no
mutant runs in this process, so none can leave a wrong value in a cache here.
A new mutant is one more row.

Run as a script, this module prints the kill matrix: every row's mutant run
over one wide config (all ids on sl2, sl21 and osp12), with the number of
checks each id fails:

    PYTHONPATH=src python tests/test_mutants.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

import pytest

from superpbw import cli, engine
from superpbw.verify import IDENTITIES


@dataclass(frozen=True)
class SourceMutant:
    name: str
    module: str         # the file of the package that is edited
    target: str         # text that occurs exactly once in it
    replacement: str
    config: dict        # the `verify --config` run that must catch it


# sl(3|1) as a table file, which `verify --config` reads by its path
SL31 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "sl31.alg")

# every id on sl2, sl21 and osp12 at trunc:3, bounds 2: the kill matrix's config,
# which the first four rows run on their own ids
WIDE = {"algebras": ["sl2", "sl21", "osp12"], "monoid": "trunc:3", "rmax": 2, "smax": 2,
        "mmax": 2, "chimax": 2, "integrality_trials": 40, "basis_degree": 3}


SOURCE_MUTANTS = (
    # u u = [u, u] for an odd letter u, not [u, u] / 2
    SourceMutant("odd_square_not_halved", "engine.py",
                 "_exact(Fraction(k, 2)) if u == x else k", "k",
                 dict(WIDE, identities=["4.8", "4.10"])),
    # twice every bracket term that lands on a Cartan letter
    SourceMutant("cartan_bracket_doubled", "engine.py", "terms = self.spec.bracket(su, sx)",
                 "terms = tuple((s, 2 * k if s[0] == 'h' else k)"
                 " for s, k in self.spec.bracket(su, sx))",
                 dict(WIDE, identities=["4.3", "4.9"])),
    # a product of divided powers built without its prod n!
    SourceMutant("divided_word_no_denominator", "identities.py",
                 "denom = math.prod([math.factorial(n) for _, n in powers])", "denom = 1",
                 dict(WIDE, identities=["4.3", "4.4", "4.5"])),
    # a root block over prod e of its runs, not prod e!
    SourceMutant("block_prod_not_factorial", "engine.py",
                 "math.prod(map(math.factorial, runs))", "math.prod(runs)",
                 dict(WIDE, identities=["integrality", "triangular"])),
    SourceMutant("odd_swap_sign_dropped", "engine.py",
                 "sign = -1 if (odd and odd_of[x]) else 1", "sign = 1",
                 {"algebras": ["sl21", "osp12"], "identities": ["4.9", "4.10", "deg6"],
                  "monoid": "trunc:3", "rmax": 2, "smax": 2, "mmax": 2, "chimax": 2}),
    # the split's guard never finds a word that must move into P: every split is accepted
    SourceMutant("split_guard_always_true", "engine.py",
                 "if ou if v[0] == u else ku > keys[v[0]]:", "if False:",
                 {"algebras": ["sl3"], "identities": ["L4.4a"], "monoid": "trunc:3",
                  "rmax": 2, "smax": 2}),
    # the same edit, seen by 4.6 and L4.4a on a rank-3 table
    SourceMutant("split_guard_always_true_sl31", "engine.py",
                 "if ou if v[0] == u else ku > keys[v[0]]:", "if False:",
                 {"algebras": [SL31], "identities": ["4.6", "L4.4a"], "monoid": "trunc:2",
                  "rmax": 2, "smax": 2}),
    # the engine negates [x_a1, x_a2] and [x_a2, x_a1] while the table keeps them, a
    # fault that signs read off the LHS would absorb
    SourceMutant("bracket_pair_negated", "engine.py", "terms = self.spec.bracket(su, sx)",
                 "terms = self.spec.bracket(su, sx)\n"
                 "            if {su, sx} == {('x', 'a1'), ('x', 'a2')}:\n"
                 "                terms = tuple((s, -k) for s, k in terms)",
                 {"algebras": ["sp4"], "identities": ["4.6", "L4.4b"], "monoid": "trunc:2",
                  "rmax": 2, "smax": 2}),
    # the fold appends an odd letter to its own copy instead of taking the odd square
    SourceMutant("odd_square_appended", "engine.py", "not odd[L]", "True",
                 {"algebras": ["osp12"], "identities": ["4.8"], "monoid": "trunc:2",
                  "rmax": 1, "smax": 1}),
    # 4.2 does not see it: both of its sides pass through the same core
    SourceMutant("bracket_constant_dropped", "engine.py", "k * c2", "c2",
                 {"algebras": ["sl2"], "identities": ["L4.3"], "monoid": "trunc:2",
                  "rmax": 1, "smax": 1}),
    SourceMutant("cartan_p_sign", "engine.py", "Fraction(-c, n)", "Fraction(c, n)",
                 {"algebras": ["sl2", "osp12"], "identities": ["4.3", "4.4", "4.5", "L4.3", "4.7"],
                  "monoid": "trunc:3", "rmax": 2, "smax": 2, "mmax": 2, "chimax": 2}),
    # deg2 catches it only once chi can hold three elements
    SourceMutant("cartan_p_no_multinomial", "engine.py", "m = multinomial(psi)", "m = 1",
                 {"algebras": ["sl2", "osp12"], "identities": ["4.4", "4.5", "L5.2", "deg2"],
                  "monoid": "trunc:3", "rmax": 2, "smax": 2, "mmax": 2, "chimax": 3}),
    # to_divided's one-alternative path keeps a word's key but not its factor
    SourceMutant("one_alternative_coefficient_dropped", "engine.py", "c *= c2", "c *= 1",
                 {"algebras": ["sl2", "sl21", "osp12"], "identities": ["integrality", "triangular"],
                  "monoid": "trunc:3", "smax": 2, "chimax": 2, "integrality_trials": 20}),
    # a bracket's coefficient is the product of the left letter's element with itself
    SourceMutant("bracket_coeff_swapped", "engine.py",
                 "self.monoid.mul(a, b)", "self.monoid.mul(a, a)",
                 {"algebras": ["sl2"], "identities": ["4.3", "L4.3"], "monoid": "trunc:2",
                  "rmax": 1, "smax": 1, "chimax": 1}),
    SourceMutant("cartan_p_wrong_size", "engine.py", "n = chi.size", "n = chi.size + 1",
                 {"algebras": ["sl2"], "identities": ["4.4", "L5.2"], "monoid": "trunc:2",
                  "rmax": 1, "chimax": 2}),
    # the block elimination of to_divided forgets to divide by the leading coefficient
    SourceMutant("cartan_block_lead_dropped", "engine.py", "Fraction(c, lead)", "Fraction(c, 1)",
                 {"algebras": ["sl2"], "identities": ["deg1", "L5.2"], "monoid": "trunc:3",
                  "rmax": 2, "chimax": 2}),
    # the Cartan-past-root law's binomial read one step up, on each of its paths
    SourceMutant("cps_binomial_shift", "identities.py",
                 "binomial(ev + size - 1, size)", "binomial(ev + size, size)",
                 {"algebras": ["sl2", "osp12"], "identities": ["4.4", "4.5", "L4.3", "4.7"],
                  "monoid": "trunc:2", "rmax": 1, "smax": 1, "mmax": 1, "chimax": 1}),
    # pi(psi) takes each element once, whatever its multiplicity: seen once chi repeats one
    SourceMutant("pi_product_skips_power", "combinatorics.py", "p = monoid.power(a, m)", "p = a",
                 {"algebras": ["sl21"], "identities": ["4.3", "4.4", "4.5", "deg1", "deg2"],
                  "monoid": "trunc:3", "rmax": 2, "smax": 2, "mmax": 2, "chimax": 2}),
    # MonoidBasis.mul keeps a product of total degree trunc (power still drops it)
    SourceMutant("trunc_mul_off_by_one", "coeffalg.py",
                 "c = tuple(x + y for x, y in zip(a, b))\n"
                 "        if self.trunc is not None and sum(c) >= self.trunc:",
                 "c = tuple(x + y for x, y in zip(a, b))\n"
                 "        if self.trunc is not None and sum(c) > self.trunc:",
                 {"algebras": ["sl2"], "identities": ["4.3", "4.4"], "monoid": "trunc:2",
                  "rmax": 1, "smax": 1, "chimax": 1}),
)

SUMMARY_RE = re.compile(r"SUMMARY checks=(\d+) pass=\d+ fail=(\d+) inapplicable=\d+")
FAIL_RE = re.compile(r"CHECK id=(\S+) .* verdict=FAIL\b")


def run_mutated(mutant, config_path, root):
    """`verify --config` on a copy of the package under root that carries the
    mutant's one edit, in a child process."""
    shutil.copytree(os.path.dirname(engine.__file__), os.path.join(root, "superpbw"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(root, "superpbw", mutant.module)
    with open(path) as fh:
        text = fh.read()
    assert text.count(mutant.target) == 1, mutant.target
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.target, mutant.replacement))
    return subprocess.run([sys.executable, "-m", "superpbw", "verify", "--config", config_path],
                          cwd=root, env=dict(os.environ, PYTHONPATH=root),
                          capture_output=True, text=True)


@pytest.mark.parametrize("mutant", SOURCE_MUTANTS, ids=lambda m: m.name)
def test_each_source_mutant_is_caught_by_its_checks(tmp_path, capsys, mutant):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(mutant.config))
    assert cli.main(["verify", "--config", str(config)]) == 0     # the tree passes
    child = run_mutated(mutant, str(config), str(tmp_path))
    assert child.returncode == 1, child.stderr
    # a crash exits 1 too: the copy must have run every check to its summary
    summary = SUMMARY_RE.fullmatch(child.stdout.splitlines()[-1])
    assert summary and int(summary[2]) >= 1, child.stdout.splitlines()[-1]


def kill_matrix():
    """Print each mutant's failing checks by id over WIDE; 1 if a copy did
    not run to its summary, else 0."""
    crashed = 0
    for mutant in SOURCE_MUTANTS:
        with tempfile.TemporaryDirectory() as root:
            config = os.path.join(root, "config.json")
            with open(config, "w") as fh:
                json.dump(WIDE, fh)
            child = run_mutated(mutant, config, root)
        lines = child.stdout.splitlines() or [""]
        summary = SUMMARY_RE.fullmatch(lines[-1])
        if summary is None:
            crashed += 1
            print("%s CRASH %s" % (mutant.name, child.stderr.strip().rpartition("\n")[2]))
            continue
        fails = [m[1] for m in map(FAIL_RE.match, lines) if m]
        print(" ".join(["%s fail=%s/%s" % (mutant.name, summary[2], summary[1])]
                       + ["%s=%d" % (i, fails.count(i)) for i in IDENTITIES if i in fails]))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(kill_matrix())
