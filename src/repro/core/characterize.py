"""Offline characterization stage (Section 3.1).

"The quality errors of different approximate hardwares ... are
pre-characterized at offline stage by simulating several iterations on
representative workloads."  For each mode this runs ``probe_iterations``
iterations twice from the same iterates — once exactly, once through the
mode — and records:

* the Definition-1 quality error ``epsilon_i`` (worst over probes, so
  the online schemes hold a conservative bound), and
* the measured energy per iteration ``j_i`` (the mode's cost vector for
  the adaptive strategy's LP).

The probe trajectory follows the *exact* iterates so every probe
compares one isolated approximate iteration against its golden twin,
which is precisely what Definition 1 measures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.arith.engine import ApproxEngine, EnergyLedger
from repro.arith.fixed import FixedPointFormat
from repro.arith.modes import ModeBank
from repro.core.quality import quality_error
from repro.ioutil import atomic_write_text
from repro.solvers.base import IterativeMethod, state_kwargs


@dataclass(frozen=True)
class ModeImpact:
    """Offline-characterized impact of one approximation mode.

    Attributes:
        mode_name: which mode.
        quality_error: Definition-1 epsilon (worst over the probes).
        energy_per_iteration: measured energy units per iteration.
        probes: number of probe iterations used.
    """

    mode_name: str
    quality_error: float
    energy_per_iteration: float
    probes: int


@dataclass(frozen=True)
class CharacterizationTable:
    """The offline stage's output: per-mode impacts plus the initial
    objective trajectory used to seed the adaptive LP's error budget.

    Attributes:
        impacts: mode name → :class:`ModeImpact`.
        f_x0: exact objective at the initial iterate.
        f_x1: exact objective after one exact iteration (so the paper's
            initialization ``E = f(x^1) − f(x^0)`` is available).
    """

    impacts: dict[str, ModeImpact]
    f_x0: float
    f_x1: float

    def epsilons(self) -> dict[str, float]:
        """Mode name → characterized quality error."""
        return {name: imp.quality_error for name, imp in self.impacts.items()}

    def energies(self) -> dict[str, float]:
        """Mode name → energy per iteration."""
        return {name: imp.energy_per_iteration for name, imp in self.impacts.items()}

    def initial_error_budget(self) -> float:
        """``|f(x^1) − f(x^0)|`` — the paper's LP budget at startup."""
        return abs(self.f_x1 - self.f_x0)

    # ------------------------------------------------------------------
    # Persistence: a deployment characterizes offline, once, and ships
    # the table with the application image.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data (JSON-ready) view."""
        return {
            "f_x0": self.f_x0,
            "f_x1": self.f_x1,
            "impacts": {
                name: {
                    "quality_error": imp.quality_error,
                    "energy_per_iteration": imp.energy_per_iteration,
                    "probes": imp.probes,
                }
                for name, imp in self.impacts.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CharacterizationTable":
        """Rebuild from :meth:`to_dict` output.

        Raises:
            ValueError: on missing fields.
        """
        try:
            impacts = {
                name: ModeImpact(
                    mode_name=name,
                    quality_error=float(entry["quality_error"]),
                    energy_per_iteration=float(entry["energy_per_iteration"]),
                    probes=int(entry["probes"]),
                )
                for name, entry in payload["impacts"].items()
            }
            return cls(
                impacts=impacts,
                f_x0=float(payload["f_x0"]),
                f_x1=float(payload["f_x1"]),
            )
        except KeyError as missing:
            raise ValueError(
                f"serialized characterization is missing field {missing}"
            ) from None


#: Bump whenever the characterization algorithm or the on-disk payload
#: changes shape; older entries then miss instead of deserializing into
#: a stale table.
CACHE_SCHEMA = 1


def characterization_cache_key(
    method: IterativeMethod,
    bank: ModeBank,
    fmt: FixedPointFormat,
    probe_iterations: int,
) -> str:
    """Content address of one characterization.

    Everything :func:`characterize` reads goes into the digest: the
    method fingerprint (class + problem data), the bank's constructor
    config *and* energy vector (energies are derived, so two banks with
    equal configs but different energy models must not share entries),
    the fixed-point format and the probe count.
    """
    payload = {
        "schema": CACHE_SCHEMA,
        "method": method.fingerprint(),
        "bank": bank.to_config(),
        "energies": bank.energy_vector(),
        "fmt": [fmt.width, fmt.frac_bits, fmt.overflow],
        "probes": int(probe_iterations),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class CharacterizationCache:
    """Content-addressed on-disk store of characterization tables.

    One JSON file per key under ``root``; the key (see
    :func:`characterization_cache_key`) covers every input of the
    offline stage, so a hit is exactly a recomputation avoided — there
    is nothing to invalidate by hand.  All failure modes degrade to a
    miss: corrupt files, schema drift, truncated writes and unreadable
    directories all answer ``None`` from :meth:`load` and the caller
    recharacterizes.  Writes go through a temp file + ``os.replace`` so
    concurrent workers can share one cache directory without ever
    observing a half-written entry; write errors are swallowed (a cache
    must never fail the computation it is caching).

    Attributes:
        root: cache directory (created lazily on first store).
        hits / misses / stores: instance-lifetime counters.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def key(
        self,
        method: IterativeMethod,
        bank: ModeBank,
        fmt: FixedPointFormat,
        probe_iterations: int,
    ) -> str:
        return characterization_cache_key(method, bank, fmt, probe_iterations)

    def load(
        self,
        method: IterativeMethod,
        bank: ModeBank,
        fmt: FixedPointFormat,
        probe_iterations: int,
    ) -> CharacterizationTable | None:
        """The cached table, or ``None`` on any kind of miss."""
        path = self._path(self.key(method, bank, fmt, probe_iterations))
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"stale cache schema {payload.get('schema')}")
            table = CharacterizationTable.from_dict(payload["table"])
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, corrupt, truncated or stale — all recharacterize.
            self.misses += 1
            return None
        self.hits += 1
        return table

    def store(
        self,
        method: IterativeMethod,
        bank: ModeBank,
        fmt: FixedPointFormat,
        probe_iterations: int,
        table: CharacterizationTable,
    ) -> None:
        """Persist a table (best effort, atomic)."""
        payload = {"schema": CACHE_SCHEMA, "table": table.to_dict()}
        path = self._path(self.key(method, bank, fmt, probe_iterations))
        try:
            atomic_write_text(path, json.dumps(payload))
        except OSError:
            return
        self.stores += 1

    def stats(self) -> dict[str, int]:
        """Counters for metrics export."""
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}


def characterize_cached(
    method: IterativeMethod,
    bank: ModeBank,
    fmt: FixedPointFormat,
    probe_iterations: int = 3,
    cache: CharacterizationCache | None = None,
) -> CharacterizationTable:
    """:func:`characterize` behind an optional disk cache.

    With ``cache=None`` this is exactly :func:`characterize`; otherwise
    the cache is consulted first and fresh results are stored back.  The
    cached table round-trips through plain data, so callers get
    bit-equal epsilons and energies on hit and miss alike.
    """
    if cache is None:
        return characterize(method, bank, fmt, probe_iterations)
    table = cache.load(method, bank, fmt, probe_iterations)
    if table is None:
        table = characterize(method, bank, fmt, probe_iterations)
        cache.store(method, bank, fmt, probe_iterations, table)
    return table


def _one_iteration(
    method: IterativeMethod, x: np.ndarray, state, engine: ApproxEngine, iteration: int
) -> np.ndarray:
    """A single direction (handed ``x``'s state) + update through ``engine``."""
    d = method.direction(x, engine, **state_kwargs(state))
    alpha = method.step_size(x, d, iteration)
    return method.postprocess(method.update(x, alpha, d, engine))


def characterize(
    method: IterativeMethod,
    bank: ModeBank,
    fmt: FixedPointFormat,
    probe_iterations: int = 3,
) -> CharacterizationTable:
    """Run the offline characterization stage for one application.

    Args:
        method: the iterative method (its own data is the representative
            workload, mirroring the paper's per-application offline
            stage).
        bank: the mode ladder to characterize.
        fmt: datapath fixed-point format.
        probe_iterations: how many early iterations to probe.

    Returns:
        A :class:`CharacterizationTable` covering every mode in ``bank``.
    """
    if probe_iterations < 1:
        raise ValueError(f"probe_iterations must be >= 1, got {probe_iterations}")

    exact_engine = ApproxEngine(bank.accurate, fmt, EnergyLedger())

    # Golden probe trajectory (shared across modes), each iterate
    # evaluated once: its objective and the state its probes direct from.
    golden = [method.postprocess(method.initial_state())]
    evaluations = [method.evaluate(golden[0])]
    for k in range(probe_iterations):
        golden.append(
            _one_iteration(method, golden[k], evaluations[k][1], exact_engine, k)
        )
        evaluations.append(method.evaluate(golden[-1]))

    impacts: dict[str, ModeImpact] = {}
    for mode in bank:
        ledger = EnergyLedger()
        engine = ApproxEngine(mode, fmt, ledger)
        worst_eps = 0.0
        for k in range(probe_iterations):
            approx_next = _one_iteration(method, golden[k], evaluations[k][1], engine, k)
            eps = quality_error(evaluations[k + 1][0], method.objective(approx_next))
            worst_eps = max(worst_eps, eps)
        impacts[mode.name] = ModeImpact(
            mode_name=mode.name,
            quality_error=worst_eps,
            energy_per_iteration=ledger.energy / probe_iterations,
            probes=probe_iterations,
        )

    return CharacterizationTable(
        impacts=impacts, f_x0=evaluations[0][0], f_x1=evaluations[1][0]
    )
