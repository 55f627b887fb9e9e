"""A mutation catalogue: small faults planted by monkeypatch, each declared
with the checks that must catch it.  Applying a mutant and running only its
ids at small bounds on sl2, sl21 and osp12 must FAIL at least one instance,
so a check that stops catching its mutant shows here.

The process-wide caches (the shared engines and their memos, p(chi), the
block conversions, the Cartan-past-root plans) are cleared before and after each mutant: a mutant
poisons every value computed while it is applied.

Faults inside a function's body (`Engine._straighten`'s closures, the
recursion of `_cartan_p`, the loop of `Engine._convert`) are out of
monkeypatch's reach.  They are planted as source edits in a copy of the
package, whose checks run in a child process; the tree itself is never
edited."""

import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from superpbw import algebra, cli, combinatorics, engine, identities, verify
from superpbw.verify import SuiteConfig, SweepBounds, run_suite

ALGEBRAS = ("sl2", "sl21", "osp12")
BOUNDS = SweepBounds(rmax=2, smax=2, mmax=2, chimax=2, integrality_gens=4,
                     integrality_trials=40, seed=0)


@dataclass(frozen=True)
class Mutant:
    name: str
    target: object      # the module or class whose attribute is replaced
    attr: str
    mutate: object      # the original attribute -> its replacement
    ids: tuple          # the checks that must catch it


def _odd_square_not_halved(real):
    """u u = [u, u] for an odd letter u, not [u, u] / 2."""
    def bracket(self, u, x):
        out = real(self, u, x)
        return tuple((c, 2 * k) for c, k in out) if u == x else out
    return bracket


def _cartan_bracket_doubled(real):
    """Twice every bracket term that lands on a Cartan letter."""
    def bracket(self, u, x):
        return tuple((c, 2 * k if self._letters[c][0][0] == 'h' else k)
                     for c, k in real(self, u, x))
    return bracket


def _divided_word_no_denominator(real):
    """A product of divided powers built without its prod n!."""
    def divided_word(eng, powers, scale=1):
        return real(eng, powers, scale * math.prod(math.factorial(n) for _, n in powers))
    return divided_word


def _block_prod_not_factorial(real):
    """A root block over prod e of its runs, not prod e!."""
    def block(blk, odd, monoid):
        if blk[0][0][0] == 'h':
            return real(blk, odd, monoid)
        runs = [len(list(g)) for _, g in itertools.groupby(blk)]
        return ((blk, Fraction(1, math.prod(runs))),)
    return block


MUTANTS = (
    Mutant("odd_square_not_halved", engine.Engine, "_bracket", _odd_square_not_halved,
           ("4.8", "4.10")),
    Mutant("cartan_bracket_doubled", engine.Engine, "_bracket", _cartan_bracket_doubled,
           ("4.3", "4.9")),
    Mutant("divided_word_no_denominator", identities, "_divided_word",
           _divided_word_no_denominator, ("4.3", "4.4", "4.5")),
    Mutant("block_prod_not_factorial", engine, "block_from_divided", _block_prod_not_factorial,
           ("integrality", "triangular")),
)


def _clear_caches():
    for module in (algebra, combinatorics, engine, identities, verify):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def clean_caches():
    _clear_caches()
    yield
    _clear_caches()


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_is_caught_by_its_checks(monkeypatch, clean_caches, mutant):
    config = SuiteConfig(ALGEBRAS, mutant.ids, "trunc:3", BOUNDS)
    assert run_suite(config).ok        # the checks pass on the code as it is
    _clear_caches()
    real = getattr(mutant.target, mutant.attr)
    monkeypatch.setattr(mutant.target, mutant.attr, mutant.mutate(real))
    result = run_suite(config)
    assert result.counts["fail"] >= 1, mutant.name


@dataclass(frozen=True)
class SourceMutant:
    name: str
    module: str         # the file of the package that is edited
    target: str         # text that occurs exactly once in it
    replacement: str
    config: dict        # the `verify --config` run that must catch it


SOURCE_MUTANTS = (
    SourceMutant("odd_swap_sign_dropped", "engine.py",
                 "sign = -1 if (odd and odd_of[x]) else 1", "sign = 1",
                 {"algebras": ["sl21", "osp12"], "identities": ["4.9", "4.10", "deg6"],
                  "monoid": "trunc:3", "rmax": 2, "smax": 2, "mmax": 2, "chimax": 2}),
    # the split's guard never finds a word that must move into P: every split is accepted
    SourceMutant("split_guard_always_true", "engine.py",
                 "if ou if v[0] == u else ku > keys[v[0]]:", "if False:",
                 {"algebras": ["sl3"], "identities": ["L4.4a"], "monoid": "trunc:3",
                  "rmax": 2, "smax": 2}),
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
)


@pytest.mark.parametrize("mutant", SOURCE_MUTANTS, ids=lambda m: m.name)
def test_each_source_mutant_is_caught_by_its_checks(tmp_path, capsys, mutant):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(mutant.config))
    assert cli.main(["verify", "--config", str(config)]) == 0     # the tree passes
    shutil.copytree(os.path.dirname(engine.__file__), tmp_path / "superpbw",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "superpbw" / mutant.module
    text = path.read_text()
    assert text.count(mutant.target) == 1, mutant.target
    path.write_text(text.replace(mutant.target, mutant.replacement))
    child = subprocess.run([sys.executable, "-m", "superpbw", "verify", "--config", str(config)],
                           cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
                           capture_output=True, text=True)
    assert child.returncode == 1, child.stderr
    # a crash exits 1 too: the copy must have run every check to its summary
    summary = child.stdout.splitlines()[-1]
    assert re.fullmatch(r"SUMMARY checks=\d+ pass=\d+ fail=[1-9]\d* inapplicable=\d+", summary)
