"""The three benchmark workloads.

Each workload builds its inputs from a seed in ``__init__`` (the set-up
the benchmark times), runs its operations through the public tca API or
the in-process CLI in :meth:`run_pass` (the timed part), and checks the
outputs in :meth:`check` against references from :mod:`reference`.

tca functions are looked up on their module at call time, so wrappers
installed by :mod:`tracing` see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

import tca
import tca.cli

from . import reference as ref

#: Golden outputs; bootstrap_policy has one for seed 9 (run.py's default
#: seed), at which its inputs are those of acceptance criterion 09.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class Ledger:
    """Counts attempted and failed operations and records each failure.

    An operation fails at most once per pass: by raising, by a nonzero
    CLI exit code, or by an output failing a check.  Each bootstrap draw
    is attempted once and fails when it is discarded.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._failed_ops = set()

    def new_pass(self):
        self._failed_ops = set()

    def fail(self, op, kind, detail):
        self.failures.append({"op": op, "kind": kind, "detail": str(detail)[:300]})
        if op not in self._failed_ops:
            self._failed_ops.add(op)
            self.failed += 1

    def run(self, op, fn):
        """Run one operation; return its result or None when it raised."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # the benchmark keeps going and reports it
            self.fail(op, "exception", f"{type(exc).__name__}: {exc}")
            return None

    def cli(self, op, argv):
        """Run ``tca.cli.main(argv)`` in process; return its exit code."""
        self.attempted += 1
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = tca.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the benchmark keeps going and reports it
            self.fail(op, "exception", f"{type(exc).__name__}: {exc}")
            return None
        if code != 0:
            self.fail(op, "exit_code", f"{code}: {err.getvalue().strip()}")
        return code

    def draws(self, op, attempted, discarded):
        self.attempted += attempted
        self.failed += discarded
        if discarded:
            self.failures.append({"op": op, "kind": "discarded", "detail": str(discarded)})

    def check(self, op, name, ok):
        if not ok:
            self.fail(op, "check", name)
        return ok


def digest(outputs) -> str:
    """sha256 over the outputs of one pass, in key order."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode())
        h.update(value if isinstance(value, bytes) else np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def _tables_out(prefix, table):
    return {f"{prefix}.{k}": getattr(table, k) for k in ("total", "channel", "complement")}


# ---------------------------------------------------------------------------


class BootstrapPolicy:
    """Acceptance criterion 09: K=4 VAR(4), T=400, ffr normalised to 0.25,
    h=20, point effects for ``ffr_0`` and ``!ffr_0`` and a 500-draw
    bootstrap of ``!ffr_0``."""

    name = "bootstrap_policy"
    one_thread = False  # bootstrap draws run on TCA_THREADS threads

    def __init__(self, seed, workdir, T=400, h=20, draws=500):
        rng = np.random.default_rng(seed)
        self.names = ("ffr", "ygap", "infl", "pcom")
        coefs = ref.stable_var_coefs(rng, 4, 4, radius=0.6)
        S = np.linalg.cholesky(0.2 * np.eye(4) + 0.8 * np.diag([1.0, 0.8, 0.6, 1.2]))
        self.data = ref.simulate_var(coefs, rng.normal(size=(T, 4)) @ S.T, np.zeros((4, 4)))
        self.h = h
        self.draws = draws
        self.boot_seed = 101 * seed
        self.golden = GOLDEN_DIR / f"{self.name}_seed{seed}.json"
        self.ordering = tca.TransmissionOrdering.identity(self.names)
        self.ident = tca.InstrumentSpec(normalize_on=1, impact=0.25)
        self.operations = [
            "estimate_var_ols(p=4)",
            f"point_effects('ffr_0', h={h})",
            f"point_effects('!ffr_0', h={h})",
            f"bootstrap_effects('!ffr_0', h={h}, replications={draws}, seed={self.boot_seed})",
        ]

    def run_pass(self, ledger):
        data, names, h = self.data, self.names, self.h
        var = ledger.run("estimate", lambda: tca.estimate_var_ols(data, 4, True, names))
        through = ledger.run("point ffr_0", lambda: tca.point_effects(
            var, self.ident, self.ordering, "ffr_0", h))
        not_through = ledger.run("point !ffr_0", lambda: tca.point_effects(
            var, self.ident, self.ordering, "!ffr_0", h))
        bands = ledger.run("bootstrap !ffr_0", lambda: tca.bootstrap_effects(
            data, tca.VarSpec(lags=4), self.ident, self.ordering, "!ffr_0",
            tca.BootstrapSpec(replications=self.draws, seed=self.boot_seed), h))
        return through, not_through, bands

    def check(self, ledger, result, full):
        through, not_through, bands = result
        out = {}
        if through is not None:
            out.update(_tables_out("through", through[0]))
        if not_through is not None:
            out.update(_tables_out("not_through", not_through[0]))
        if through is not None and not_through is not None:
            a, b = through[0], not_through[0]
            ledger.check("point !ffr_0", "through + not_through = total (1e-9)",
                         ref.close(a.channel + b.channel, a.total, 1e-9, 1e-9))
        if bands is not None:
            ledger.draws("bootstrap draws", bands.replications, bands.discarded)
            for part in ("point", "lower", "upper"):
                for kind, arr in getattr(bands, part).items():
                    out[f"bands.{part}.{kind}"] = arr
            ledger.check("bootstrap !ffr_0", "band point: channel + complement = total (1e-9)",
                         ref.close(bands.point["channel"] + bands.point["complement"],
                                   bands.point["total"], 1e-9, 1e-9))
        if full and through is not None:
            expected = ref.instrument_total(self.data, 4, self.h, 1, 0.25)
            ledger.check("point ffr_0", "total = own OLS + Cholesky recursion (1e-8)",
                         ref.close(through[0].total, expected, 1e-8, 1e-12))
        if full and self.golden.is_file():
            gold = json.loads(self.golden.read_text())["arrays"]
            op = {"through": "point ffr_0", "not_through": "point !ffr_0",
                  "bands": "bootstrap !ffr_0"}
            for key, expected in sorted(gold.items()):
                ledger.check(op[key.split(".")[0]], f"golden {key} (rtol 1e-7)",
                             key in out and ref.close(out[key], expected, 1e-7, 1e-12))
        return out


class ChannelAnyHorizon:
    """Structural VARMA (K=4, AR 2, MA 1), random ordering, h=12: shock 1
    decomposed along "through the 2nd variable at any horizon", its
    negation, and a random 8-literal formula."""

    name = "channel_any_horizon"
    one_thread = True

    def __init__(self, seed, workdir, K=4, h=12, random_literals=8):
        rng = np.random.default_rng(seed)
        self.A0 = ref.well_conditioned(rng, K)
        self.A = [rng.normal(scale=0.3, size=(K, K)) / 2 for _ in range(2)]
        self.Psi = [rng.normal(scale=0.3, size=(K, K))]
        names = tuple(f"v{i + 1}" for i in range(K))
        order = list(names)
        rng.shuffle(order)
        self.model = tca.VarmaModel(var_names=names, A0=self.A0, A=tuple(self.A),
                                    Psi=tuple(self.Psi))
        self.ordering = tca.TransmissionOrdering.from_names(names, order)
        self.dest = [names.index(n) for n in order]
        self.K, self.h = K, h
        second = [t * K + 2 for t in range(h + 1)]
        through = ref.any_of(second)
        self.formulas = {
            "any_horizon": through,
            "not_any_horizon": ("not", through),
            "random": ref.random_formula(rng, (h + 1) * K, random_literals),
        }
        self.texts = {k: ref.to_text(f, order) for k, f in self.formulas.items()}
        self.operations = [f"make_systems_form(h={h})"] + [
            f"transmission_effect(shock=1, {self.texts[k]!r})" for k in self.formulas
        ]

    def run_pass(self, ledger):
        sf = ledger.run("make_systems_form", lambda: tca.make_systems_form(
            self.model, self.ordering, self.h))
        tables = {
            key: ledger.run(f"transmission_effect {key}",
                            lambda text=text: tca.transmission_effect(sf, text, shock=1))
            for key, text in self.texts.items()
        }
        return sf, tables

    def check(self, ledger, result, full):
        sf, tables = result
        out = {}
        for key, table in tables.items():
            if table is not None:
                out.update(_tables_out(key, table))
                ledger.check(f"transmission_effect {key}", "channel + complement = total (1e-9)",
                             ref.close(table.channel + table.complement, table.total, 1e-9, 1e-9))
        a, b = tables["any_horizon"], tables["not_any_horizon"]
        if a is not None and b is not None:
            ledger.check("transmission_effect not_any_horizon",
                         "channel(c) + channel(!c) = total (1e-9)",
                         ref.close(a.channel + b.channel, a.total, 1e-9, 1e-9))
        if full and sf is not None:
            theta = ref.structural_ma(self.A0, self.A, self.Psi, self.h)
            expected = theta[:, self.dest, 0]
            for key, table in tables.items():
                if table is not None:
                    ledger.check(f"transmission_effect {key}", "total = own MA recursion (1e-8)",
                                 ref.close(table.total, expected, 1e-8, 1e-12))
            self._check_paths(ledger, sf, tables)
        return out

    def _check_paths(self, ledger, sf, tables):
        """Channels at horizons 0..2 against enumerated paths filtered by
        the benchmark's own formula evaluator."""
        K = self.K
        for m in range(1, 3 * K + 1):
            paths = tca.enumerate_paths(sf, 1, m)
            r, t = (m - 1) % K, (m - 1) // K
            for key, formula in self.formulas.items():
                table = tables[key]
                if table is None:
                    continue
                want = sum(p.coefficient for p in paths if ref.holds(formula, set(p.nodes)))
                ledger.check(f"transmission_effect {key}", f"paths oracle x{m} (1e-9)",
                             ref.close(table.channel[t, r], want, 1e-9, 1e-9))


class LargeGrid:
    """Structural VAR(4), K=20, h=200 (n=4,020) through the in-process CLI:
    ``tca transmission`` with ``v1_0`` and ``!v1_0``, then ``tca verify``."""

    name = "large_grid"
    one_thread = True

    def __init__(self, seed, workdir, K=20, h=200):
        rng = np.random.default_rng(seed)
        self.A0, self.A = ref.structural_var(rng, K, 4, radius=0.8)
        self.K, self.h = K, h
        names = [f"v{i + 1}" for i in range(K)]
        workdir = Path(workdir)
        self.model_path = workdir / "large_grid_model.json"
        self.csv_path = workdir / "large_grid_effects.csv"
        doc = {"K": K, "var_names": names, "ell": 4, "q": 0, "A0": self.A0.tolist(),
               "A": [a.tolist() for a in self.A], "Psi": []}
        self.model_path.write_text(json.dumps(doc))
        self.transmission = [
            "transmission", "--model", str(self.model_path), "--order", ",".join(names),
            "--shock", "1", "--condition", "v1_0", "--condition", "!v1_0",
            "--assert-partition", "--horizon", str(h), "--out", str(self.csv_path),
        ]
        self.verify = ["verify", str(self.csv_path)]
        self.operations = [
            "tca transmission --shock 1 --condition v1_0 --condition '!v1_0' "
            f"--assert-partition --horizon {h}",
            "tca verify <effects.csv>",
        ]

    def run_pass(self, ledger):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csv_path)
        code = ledger.cli("tca transmission", self.transmission)
        verify = ledger.cli("tca verify", self.verify)
        return code, verify

    def check(self, ledger, result, full):
        if result[0] != 0 or not self.csv_path.is_file():
            return {}
        data = self.csv_path.read_bytes()
        if full:
            rows = list(csv.DictReader(io.StringIO(data.decode())))
            total = np.zeros((self.h + 1, self.K))
            for row in rows:
                total[int(row["horizon"]), int(row["variable"][1:]) - 1] = float(row["total"])
            expected = ref.structural_ma(self.A0, self.A, [], self.h)[:, :, 0]
            ledger.check("tca transmission", "rows = (h+1) K",
                         len(rows) == (self.h + 1) * self.K)
            ledger.check("tca transmission", "total = own MA recursion (1e-8)",
                         ref.close(total, expected, 1e-8, 1e-14 * np.abs(expected).max()))
        return {"effects.csv": data}


WORKLOADS = {w.name: w for w in (BootstrapPolicy, ChannelAnyHorizon, LargeGrid)}
