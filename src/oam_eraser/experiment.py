"""Experiment assembly: source + per-arm elements + analyzers.

The canonical arrangement couples a down-conversion source into a
spin-orbit converter (q-plate), a single-mode fiber post-selection and a
quarter-wave plate on arm A, producing a polarization(A)-OAM(B) entangled
pair.  Arm A is analyzed with a rotatable polarizer, arm B with a rotated
azimuthal hologram; the conditional coincidence probability follows

    P(alpha, theta) = (1 + sin(2*alpha) * cos(2*theta + pi/2)) / 2

exactly for the ideal configuration, which the test suite pins on a grid.

A pipeline state is one pass of the source terms through both arms' elements,
composed once into a cached linear map (:func:`_elements_map`); element-by-element
application (:func:`~oam_eraser.elements.apply_element`) is not a build path.
Every analyzer probability is a state's 3x4 fringe matrix ``F``, the one cache of
a pipeline build (read-only), read at the polarizer's tilted angle (one angle in
Python floats, many in one real product), then times the rows ``(1, cos 2theta,
-sin 2theta)`` (:func:`_analyzer_core`); :func:`causal_order_probability` stays
on the sparse operators as a reference.

Counted scans draw from counter-based Philox streams keyed by ``(seed,
repetition, point index)``, so results do not depend on the order of the
points; :func:`simulate_counts` draws them from one cached Philox per seed and
reads no OS entropy.  The timeline draws only the detected pairs, a Poisson process
at ``pair_rate * joint``, and singles, each from ``SeedSequence(seed, spawn_key=(stream,))``.
"""

from __future__ import annotations

import gc
import math
import threading
from dataclasses import dataclass, replace
from functools import cache, cached_property, lru_cache
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import elements as el
from .hilbert import (
    L_CAP,
    NULL_TOL,
    POL_H,
    POL_V,
    PRUNE_TOL,
    JointKet,
    OamOverflowError,
    _prune,
    checked_probability,
    local_sums,
    postselect_local,
)

TWO_PI = 2.0 * math.pi


class NullOutcomeError(RuntimeError):
    """The pipeline state was fully extinguished by a post-selection."""

    def __init__(self, element: str, message: str | None = None):
        self.element = element
        super().__init__(message or f"state extinguished by element '{element}'")


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True, slots=True)
class SourceSpec:
    """Photon-pair source.

    ``spdc`` produces the OAM-anticorrelated pair
    ``sum_l c_|l| |l>_A |-l>_B |H>_A |H>_B`` with a flat or Gaussian
    ``c_|l| ~ exp(-l^2 / (2 sigma_ell^2))`` spectrum over ``|l| <= l_max``.
    ``generic_two_path`` produces the fully marked two-path state
    ``(|H>_A|+1>_B + |V>_A|-1>_B)/sqrt(2)``: a source that needs no arm-A
    elements, whose polarization already marks arm B's OAM path, so the
    analyzers alone show the eraser (``V = |sin 2 alpha|``).
    """

    kind: str = "spdc"
    l_max: int = 1
    spectrum: str = "flat"
    sigma_ell: float | None = None

    def __post_init__(self):
        if self.kind not in ("spdc", "generic_two_path"):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.l_max < 0 or self.l_max > L_CAP:
            raise ValueError("l_max outside [0, OAM cap]")
        if self.spectrum not in ("flat", "gaussian"):
            raise ValueError(f"unknown spectrum {self.spectrum!r}")
        # the build divides by 2 sigma_ell^2, which is 0.0 below about 1.5e-162,
        # and sigma_ell^2 overflows above about 1.3e154
        if self.spectrum == "gaussian" and not (
                self.sigma_ell and 0.0 < self.sigma_ell < 1e150 and 2.0 * self.sigma_ell ** 2):
            raise ValueError("gaussian spectrum needs sigma_ell in (0, 1e150) "
                             f"with 2 sigma_ell^2 above 0.0, got {self.sigma_ell!r}")


@dataclass(frozen=True, slots=True)
class CountingModel:
    """Coincidence counting parameters; all rates in events per second.

    ``pair_rate`` counts post-selected pairs: pairs that get through every
    element of the pipeline, the fiber included.  A scan point's true
    coincidences are ``pair_rate * T`` times its joint analyzer probability
    in the post-selected state; the pipeline's cumulative probability does
    not scale them.  Accidentals are uncorrelated singles on the two arms
    that fall within ``|t_A - t_B| <= gate`` of each other, a window
    ``2 * gate`` wide.
    """

    pair_rate: float = 1000.0
    integration_time: float = 5.0
    gate: float = 25e-9
    singles_a: float = 0.0
    singles_b: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.pair_rate, self.singles_a, self.singles_b) < 0:
            raise ValueError("rates must be non-negative")
        if self.integration_time < 0:
            raise ValueError("integration time must be non-negative")
        if self.gate <= 0:
            raise ValueError("gate must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    def accidentals(self) -> float:
        """Expected accidental coincidences per integration window,
        ``2 * singles_a * singles_b * gate * T``."""
        return (2.0 * self.singles_a * self.singles_b * self.gate
                * self.integration_time)


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    source: SourceSpec
    elements_a: tuple = ()
    elements_b: tuple = ()
    analyzer_a: el.PolarizerSpec = el.PolarizerSpec(alpha=0.0, arm="A")
    analyzer_b: el.HologramSpec = el.HologramSpec(ell=1, arm="B")
    counting: CountingModel = CountingModel()

    def __post_init__(self):
        for arm, elems in (("A", self.elements_a), ("B", self.elements_b)):
            delays = 0
            for spec in elems:
                if not isinstance(spec, el.ElementSpec):
                    raise TypeError(f"not an element spec: {spec!r}")
                if spec.arm != arm:
                    raise ValueError(f"element {spec!r} listed on arm {arm}")
                delays += isinstance(spec, el.DelaySpec)
            if delays > 1:
                raise ValueError(f"arm {arm} has more than one delay element")
        if self.analyzer_a.arm != "A" or self.analyzer_b.arm != "B":
            raise ValueError("analyzers must sit on arms A (polarizer) and B (hologram)")

    def arm_delay(self, arm: str) -> float:
        elems = self.elements_a if arm == "A" else self.elements_b
        for spec in elems:
            if isinstance(spec, el.DelaySpec):
                return spec.delay_seconds
        return 0.0


#: event tag by true-pair flag
TAGS = ("accidental", "true_pair")


class EventRecord(NamedTuple):
    """One detector click, as :class:`EventTable` yields them."""

    arm: str
    timestamp: float
    tag: str  # one of TAGS


@dataclass(frozen=True, eq=False)
class EventTable:
    """Detector clicks as columns: per arm, the click times in seconds,
    sorted, and a mask of the clicks that belong to a detected pair.  The
    arrays are made read-only.

    Iterating yields one :class:`EventRecord` per click, arm A then arm B,
    each arm in time order.  The records are built on the first iteration
    and kept, so readers that pass over the events several times build them
    once; code that reads the columns never builds them.
    """

    times_a: np.ndarray
    true_pair_a: np.ndarray
    times_b: np.ndarray
    true_pair_b: np.ndarray

    def __post_init__(self):
        for column in vars(self).values():
            column.flags.writeable = False

    def arms(self) -> tuple:
        """``(arm, times, true_pair)`` for arm A, then arm B."""
        return (("A", self.times_a, self.true_pair_a),
                ("B", self.times_b, self.true_pair_b))

    def __len__(self) -> int:
        return len(self.times_a) + len(self.times_b)

    def __iter__(self):
        return iter(self._records)

    @cached_property
    def _records(self) -> tuple:
        # Records are flat tuples of atoms and form no cycles, so the cyclic
        # collector, which a large build would trigger again and again, is
        # paused while they are made and then put back as it was.
        enabled = gc.isenabled()
        gc.disable()
        try:  # tuple.__new__ skips the Python __new__
            return tuple(chain.from_iterable(
                map(tuple.__new__, repeat(EventRecord), zip(
                    repeat(arm), times.tolist(), map(TAGS.__getitem__, true_pair.tolist())))
                for arm, times, true_pair in self.arms()))
        finally:
            if enabled:
                gc.enable()


@dataclass(frozen=True, slots=True)
class ScanSeries:
    """One parameter scan: settings, probabilities and (optional) counts."""

    settings: tuple
    probabilities: tuple  # conditional detection probabilities
    joint_probabilities: tuple | None = None
    counts: tuple | None = None

    def __post_init__(self):
        n = len(self.settings)
        for name in ("probabilities", "joint_probabilities", "counts"):
            seq = getattr(self, name)
            if seq is not None and len(seq) != n:
                raise ValueError(f"{name} length does not match settings")
        for p in self.probabilities:
            if not -1e-9 <= p <= 1.0 + 1e-9:
                raise ValueError("probabilities must lie in [0, 1]")


#: arm A and the holograms of the canonical eraser, shared by every config built from it
_CANONICAL_ARM_A = (el.QPlateSpec(q=0.5, arm="A"),
                    el.FiberSpec(arm="A", accepted_ell=0),
                    el.WavePlateSpec(kind="quarter", fast_axis=math.pi / 4, arm="A"))
_CANONICAL_HOLOGRAMS = {mode: el.HologramSpec(ell=1, mode=mode, arm="B")
                        for mode in ("ideal", "binary")}


def hybrid_eraser_config(alpha: float = 0.0,
                         extinction: float = 0.0,
                         hologram_mode: str = "ideal",
                         l_max: int = 1,
                         spectrum: str = "flat",
                         sigma_ell: float | None = None,
                         counting: CountingModel | None = None,
                         delay_m: float = 0.0) -> ExperimentConfig:
    """The canonical hybrid-entanglement eraser: q=0.5 plate, fiber and
    quarter-wave plate at pi/4 on arm A; polarizer/hologram analyzers."""
    delay = (el.DelaySpec(extra_path=delay_m, arm="A"),) if delay_m != 0.0 else ()
    return ExperimentConfig(
        source=SourceSpec(kind="spdc", l_max=l_max, spectrum=spectrum,
                          sigma_ell=sigma_ell),
        elements_a=_CANONICAL_ARM_A + delay,
        elements_b=(),
        analyzer_a=el.PolarizerSpec(alpha=alpha, extinction=extinction, arm="A"),
        analyzer_b=(_CANONICAL_HOLOGRAMS.get(hologram_mode)
                    or el.HologramSpec(ell=1, mode=hologram_mode, arm="B")),
        counting=counting or CountingModel(),
    )


# ---------------------------------------------------------------------------
# state preparation and pipeline


def _source_terms(source: SourceSpec) -> list:
    """The source's ``(label, amplitude)`` pairs, real and pruned, normalized once
    and then again as :func:`joint_ket` would, in label order."""
    if source.kind == "generic_two_path":
        labels = [(POL_H, 0, POL_H, 1), (POL_V, 0, POL_H, -1)]
    else:
        labels = [(POL_H, ell, POL_H, -ell) for ell in range(-source.l_max, source.l_max + 1)]
    raw = [1.0] * len(labels)
    if source.kind == "spdc" and source.spectrum == "gaussian":
        s2 = 2.0 * source.sigma_ell ** 2
        raw = [math.exp(-k[1] * k[1] / s2) for k in labels]
    norm = math.sqrt(sum(v * v for v in raw))
    raw = [v / norm for v in raw]
    n = math.sqrt(sum(v ** 2 for v in raw))
    return [(k, v / n) for k, v in zip(labels, raw) if v / n >= PRUNE_TOL]


def build_source_state(source: SourceSpec) -> JointKet:
    return JointKet({k: complex(v) for k, v in _source_terms(source)})


@lru_cache(maxsize=128)
def _elements_map(specs: tuple) -> tuple:
    """Both arms' elements, delays left out, as ``(image, number of post-selections)``:
    ``image(label)`` walks a unit source label through them once, as the element
    walk would but with projections unnormalized, to a shared read-only tuple of
    stages, each a tuple of ``(label, amplitude)`` pairs: the amplitudes just past
    each post-selection, then the image's.  A label pushed past ``L_CAP`` keeps only
    the stages it reached before that element."""
    ops = [(spec.arm, *el.element_operator(spec)) for spec in specs]

    @cache
    def image(label: tuple) -> tuple:
        amps, stages = {label: 1.0 + 0.0j}, []
        try:
            for arm, terms, post in ops:
                amps = _prune(local_sums(terms, arm, amps))
                if post:
                    stages.append(tuple(amps.items()))
        except OamOverflowError:
            return tuple(stages)
        return (*stages, tuple(amps.items()))

    return image, sum(post for _, _, post in ops)


def _pipeline(source: SourceSpec, elements_a: tuple, elements_b: tuple):
    image, posts = _elements_map(tuple(spec for spec in elements_a + elements_b
                                       if not isinstance(spec, el.DelaySpec)))
    terms = [(a, image(label)) for label, a in _source_terms(source)]
    p = scale = 1.0
    for k in range(posts + 1):
        out = {}  # terms that meet on one label are summed there
        for a, stages in terms:
            if len(stages) == k:  # this term's label overflowed before stage k
                raise OamOverflowError("OAM support overflow")
            for label, x in stages[k]:
                out[label] = out.get(label, 0.0) + a * x
        if k == posts:
            break
        # post-selection k's own probability: the squared norm of what passes it,
        # at the scale the walk's state, renormalized at each one, would have
        passed = 0.0
        for x in out.values():
            passed += abs(x * scale) ** 2
        if passed < NULL_TOL:
            named = [f"{el.element_name(spec)}[{spec.arm}:{i}]"
                     for specs in (elements_a, elements_b)
                     for i, spec in enumerate(specs) if el.element_operator(spec)[1]]
            raise NullOutcomeError(named[k])
        scale *= 1.0 / math.sqrt(passed)
        p = checked_probability(p * checked_probability(passed))
    return JointKet(_prune({label: x * scale for label, x in out.items()})), p


def run_pipeline(config: ExperimentConfig):
    """Apply all configured elements (not the analyzers).

    Returns ``(state, cumulative_probability)`` where the cumulative
    probability is the product of every post-selection success along the
    way.  The source terms pass through both arms' cached linear map in one
    go, summed where they meet, then are normalized and pruned once.  A
    post-selection that passes less than ``NULL_TOL`` of what reaches it
    raises :class:`NullOutcomeError` naming it ``name[arm:index]``, delays
    counted.  Each call builds a new state; only its fringe matrix is cached
    (:func:`_config_moments`).
    """
    return _pipeline(config.source, config.elements_a, config.elements_b)


def _moments(state: JointKet, ell: int, hologram_arm: str) -> np.ndarray:
    """The real 3x4 fringe matrix ``F``: rows HH, HV+VH and VV of
    ``(Re(M[p,+,q,+] + M[p,-,q,-])/2, Re M[p,+,q,-], Im M[p,+,q,-], P[p,q])`` for
    ``M[p, y, q, z] = sum psi[p, x, r, y] psi*[q, x, r, z]``, ``y, z`` in ``(ell,
    -ell)``, and ``P`` the other arm's polarization matrix over all columns."""
    px, lx, py, ly = (0, 1, 2, 3) if hologram_arm == "B" else (2, 3, 0, 1)
    rest, paired = {}, {}
    for k, amp in state.amplitudes.items():
        rest.setdefault((k[lx], k[py], k[ly]), [0j, 0j])[k[px]] = amp
        if k[ly] == ell or k[ly] == -ell:
            paired.setdefault((k[lx], k[py]), [0j] * 4)[k[px] + 2 * (k[ly] != ell)] = amp
    a = np.array(list(rest.values())).T
    b = np.array(list(paired.values()), dtype=complex).reshape(-1, 4).T
    m, P = (b @ b.conj().T).tolist(), (a @ a.conj().T).real.tolist()  # m: H+, V+, H-, V-
    cross = m[0][3] + m[1][2]  # M[H,+,V,-] + M[V,+,H,-]
    return np.array([[0.5 * (m[0][0] + m[2][2]).real, m[0][2].real, m[0][2].imag, P[0][0]],
                     [(m[0][1] + m[2][3]).real, cross.real, cross.imag, 2.0 * P[0][1]],
                     [0.5 * (m[1][1] + m[3][3]).real, m[1][3].real, m[1][3].imag, P[1][1]]])


@lru_cache(maxsize=128)
def _pipeline_moments(source, elements_a: tuple, elements_b: tuple, ell: int, arm: str):
    fringe = _moments(_pipeline(source, elements_a, elements_b)[0], ell, arm)
    fringe.flags.writeable = False  # every caller shares it
    return fringe


def _config_moments(config: ExperimentConfig) -> np.ndarray:
    """The cached, read-only fringe matrix ``F`` of a config's pipeline state."""
    return _pipeline_moments(config.source, config.elements_a, config.elements_b,
                             config.analyzer_b.ell, config.analyzer_b.arm)


def _fringe_form(fringe: np.ndarray, polarizer, hologram, alphas) -> tuple:
    """``(coef, p_pol)`` per polarizer angle: ``v[:, :3]`` (times the binary coupling
    squared in binary mode) and ``v[:, 3]`` of ``v = w F``, ``w = (c*c, c*s, s*s)`` at
    the tilted angle ``alpha + atan(extinction)``, or ``(1, 0, 1)`` with ``p_pol = 1``.
    One angle goes through :func:`_fringe_at`, whose float sums may differ in the last bit."""
    if polarizer is not None and polarizer.arm == hologram.arm:
        raise ValueError("polarizer and hologram must sit on different arms")
    if polarizer is None:
        coef, p_pol = (fringe[0] + fringe[2])[None, :3], np.ones(1)
    else:
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        if len(alphas) == 1:
            coef, p_pol = _fringe_at(fringe, polarizer, hologram, alphas.item())
            return np.array([coef]), np.array([p_pol])
        tilted = alphas + math.atan(polarizer.extinction)
        w = np.empty((tilted.size, 3))
        np.multiply(np.cos(tilted, out=w[:, 0]), np.sin(tilted, out=w[:, 2]), out=w[:, 1])
        np.square(w[:, ::2], out=w[:, ::2])
        v = w @ fringe
        coef, p_pol = v[:, :3], v[:, 3]
        if (p_pol < NULL_TOL).any():
            raise NullOutcomeError("polarizer[analyzer_a]")
    if hologram.mode == "binary":
        coef = coef * el.binary_coupling(hologram.ell) ** 2
    return coef, p_pol


def _fringe_at(fringe: np.ndarray, polarizer, hologram, alpha: float) -> tuple:
    """``([o, Re c, Im c], p_pol)`` of :func:`_fringe_form` at one angle, in floats."""
    tilted = alpha + math.atan(polarizer.extinction)
    c, s = math.cos(tilted), math.sin(tilted)
    w0, w1, w2 = c * c, c * s, s * s
    o, x, y, p_pol = [(w0 * a + w1 * b) + w2 * d for a, b, d in zip(*fringe.tolist())]
    if p_pol < NULL_TOL:
        raise NullOutcomeError("polarizer[analyzer_a]")
    g = el.binary_coupling(hologram.ell) ** 2 if hologram.mode == "binary" else 1.0
    return [o * g, x * g, y * g], p_pol


def _harmonics(thetas) -> np.ndarray:
    """The rows ``(1, cos 2theta, -sin 2theta)``, one column per angle."""
    two = 2.0 * np.asarray(thetas, dtype=float).reshape(-1)
    basis = np.ones((3, two.size))
    np.cos(two, out=basis[1])
    np.negative(np.sin(two, out=basis[2]), out=basis[2])
    return basis


def _analyzer_core(fringe: np.ndarray, polarizer, hologram, alphas, basis):
    """Joint and conditional probabilities, a row per polarizer angle, from ``F`` and
    the harmonic rows: the joint ``o + Re(c e^{2i theta})`` (:func:`_fringe_form`),
    the conditional joint / ``p_pol``, and both exactly 0 where the joint is below
    ``NULL_TOL * p_pol``; ``polarizer=None`` gives the hologram arm alone."""
    coef, p_pol = _fringe_form(fringe, polarizer, hologram, alphas)
    joint = coef @ basis
    np.putmask(joint, joint < NULL_TOL * p_pol[:, None], 0.0)
    return joint, checked_probability(joint / p_pol[:, None])


def coincidence_probability(config: ExperimentConfig,
                            alpha: float, theta: float):
    """Joint and conditional detection probability at analyzer settings.

    ``joint`` is the probability that both analyzers pass (normalized to
    the post-selected pipeline state); ``conditional`` divides out the
    arm-A polarizer probability alone.
    """
    joint, cond = conditional_grid(config, [alpha], [theta])
    return float(joint[0, 0]), float(cond[0, 0])


def conditional_grid(config: ExperimentConfig, alphas, thetas):
    """Joint/conditional probabilities over an (alpha, theta) grid."""
    return _analyzer_core(_config_moments(config), config.analyzer_a,
                          config.analyzer_b, alphas, _harmonics(thetas))


@lru_cache(maxsize=8, typed=True)
def _full_turn(points: int) -> tuple:
    """Read-only harmonic rows and settings of ``points`` angles over a turn."""
    thetas = np.linspace(0.0, TWO_PI, points, endpoint=False)
    basis = _harmonics(thetas)
    basis.flags.writeable = False
    return basis, tuple(thetas.tolist())


def theta_scans(config: ExperimentConfig, alphas, thetas=None,
                points: int = 72) -> list:
    """Exact hologram-rotation scans, one per polarizer angle, from one grid;
    without ``thetas``, ``points`` angles over a full turn."""
    basis, settings = _full_turn(points) if thetas is None else (
        _harmonics(thetas), tuple(np.asarray(thetas, dtype=float).tolist()))
    joint, cond = _analyzer_core(_config_moments(config), config.analyzer_a,
                                 config.analyzer_b, alphas, basis)
    return [ScanSeries(settings=settings, probabilities=tuple(row_cond),
                       joint_probabilities=tuple(row_joint))
            for row_joint, row_cond in zip(joint.tolist(), cond.tolist())]


def theta_scan(config: ExperimentConfig, thetas=None,
               points: int = 72) -> ScanSeries:
    """Exact hologram-rotation scan at the configured polarizer angle."""
    return theta_scans(config, [config.analyzer_a.alpha], thetas, points)[0]


def causal_order_probability(config: ExperimentConfig, alpha: float,
                             theta: float, order: str = "A_first") -> float:
    """Conditional coincidence probability with projections in a fixed order.

    Both orders agree (the projectors act on different arms); the delayed
    variant of the experiment only reorders detection times, so this
    function is what makes that causal independence testable.
    """
    if order not in ("A_first", "B_first"):
        raise ValueError(f"unknown projection order {order!r}")
    state, _ = run_pipeline(config)
    pol_op = el.polarizer_operator(replace(config.analyzer_a, alpha=alpha))
    holo_op = el.sector_projector(replace(config.analyzer_b, theta=theta))
    arm_a, arm_b = config.analyzer_a.arm, config.analyzer_b.arm
    state_a, p_a = postselect_local(pol_op, arm_a, state)
    if state_a is None:
        raise NullOutcomeError("polarizer[analyzer_a]")
    if order == "A_first":
        _, p_b_given_a = postselect_local(holo_op, arm_b, state_a)
        return checked_probability(p_b_given_a)
    state_b, p_b = postselect_local(holo_op, arm_b, state)
    if state_b is None:
        return 0.0
    _, p_a_given_b = postselect_local(pol_op, arm_a, state_b)
    return checked_probability(p_b * p_a_given_b / p_a)


# ---------------------------------------------------------------------------
# counted data


class _Seeding:
    """A Philox seeded with ``SeedSequence(seed)``, its bound ``poisson``, the
    ``lock`` held while they are used, and the Philox's read-only ``key``."""

    def __init__(self, seed: int):
        sequence = np.random.SeedSequence(seed)
        self.bitgen = np.random.Philox(sequence)
        self.poisson = np.random.Generator(self.bitgen).poisson
        self.lock = threading.Lock()
        self.key = sequence.generate_state(2, np.uint64)
        self.key.flags.writeable = False


_seeding = lru_cache(maxsize=64, typed=True)(_Seeding)


def _stream_key(seed: int, repetition: int, index: int = 0) -> np.ndarray:
    """Read-only Philox key of ``seed``, once ``repetition`` and ``index`` are
    known to fit their 64-bit counter words."""
    for name, word in (("repetition", repetition), ("index", index)):
        if not 0 <= word < 2 ** 64:
            raise ValueError(f"{name} {word!r} outside [0, 2**64)")
    return _seeding(seed).key


def point_stream(seed: int, repetition: int, index: int) -> np.random.Generator:
    """Counter-based RNG stream for one scan point.

    A Philox4x64 generator (Salmon et al., SC'11) keyed by the seed, whose
    counter starts at ``[0, 0, index, repetition]``.  Draws advance counter
    words 0-1 only, so no two points share a block, and a point's draws do
    not depend on the order (or parallel schedule) in which points are
    evaluated.
    """
    return np.random.Generator(np.random.Philox(
        key=_stream_key(seed, repetition, index),
        counter=np.array([0, 0, index, repetition], dtype=np.uint64)))


def simulate_counts(config: ExperimentConfig, series: ScanSeries,
                    repetition: int = 0) -> ScanSeries:
    """Draw Poisson counts for each scan point.

    ``counts[i] ~ Poisson(pair_rate * T * joint[i] + accidentals)`` with
    the accidental term ``2 * singles_a * singles_b * gate * T``.  Point ``i``
    draws from ``point_stream(seed, repetition, i)``, so identical seeds
    give identical counts regardless of evaluation order.  The seed's cached
    Philox (:class:`_Seeding`), seeded without OS entropy, is reused: under the
    seed's lock, each point writes its counter words and an empty buffer into
    it, which gives the same draws without a Generator per point.
    """
    joint = series.joint_probabilities
    if joint is None:
        raise ValueError("series carries no joint probabilities")
    cm = config.counting
    acc, rate = cm.accidentals(), cm.pair_rate * cm.integration_time
    seeding, key = _seeding(cm.seed), _stream_key(cm.seed, repetition)
    bitgen, draw = seeding.bitgen, seeding.poisson
    counter = [0, 0, 0, repetition]  # lists: the state setter reads word by word
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": key.tolist()},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    counts = []
    with seeding.lock:
        for index, p in enumerate(joint):
            counter[2] = index
            bitgen.state = state  # drops any word the last point left buffered
            counts.append(int(draw(rate * p + acc)))
    return ScanSeries(series.settings, series.probabilities, joint, tuple(counts))


def simulate_timeline(config: ExperimentConfig, alpha: float, theta: float,
                      duration: float):
    """Event-by-event Monte Carlo of the gated coincidence counter.

    Pair emissions form a Poisson process at ``pair_rate``, each detected
    with the joint detection probability; thinned so, they are Poisson at
    ``pair_rate * joint`` (Lewis and Shedler 1979), and the detected pairs
    are drawn directly from stream 1.  Each clicks on both arms, shifted by
    any per-arm delay element.  Uncorrelated accidental singles are
    injected at the configured rates (streams 3 and 4).  Two clicks
    coincide when ``|t_A - t_B| <= gate``.

    Returns ``(events, coincidences)``: an :class:`EventTable` with each
    arm's clicks in time order (a true-pair click first on equal times),
    and the greedy coincidence count.
    """
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration!r} s")
    cm = config.counting
    clicks = max(cm.pair_rate, cm.singles_a, cm.singles_b) * duration
    joint, _ = coincidence_probability(config, alpha, theta)

    # seeded before the draws, so that a bad seed keeps its own error
    pairs, *singles = (
        np.random.default_rng(np.random.SeedSequence(cm.seed, spawn_key=(stream,)))
        for stream in (1, 3, 4))
    try:
        pair_times = np.sort(pairs.uniform(
            0.0, duration, pairs.poisson(cm.pair_rate * joint * duration)))

        def arm_clicks(arm: str, r: np.random.Generator, rate: float):
            times = pair_times + config.arm_delay(arm)
            if rate > 0.0:
                accidental = np.sort(r.uniform(0.0, duration,
                                               r.poisson(rate * duration)))
                times = np.concatenate([times, accidental])
            order = np.argsort(times, kind="stable")
            return times[order], order < len(pair_times)

        times_a, true_pair_a = arm_clicks("A", singles[0], cm.singles_a)
        times_b, true_pair_b = arm_clicks("B", singles[1], cm.singles_b)
    except (ValueError, MemoryError):  # a Poisson mean or an array too large
        raise ValueError(f"duration {duration!r} s is too long: {clicks:.3g} "
                         "expected clicks cannot be drawn and held") from None
    events = EventTable(times_a, true_pair_a, times_b, true_pair_b)
    return events, _count_coincidences(times_a, times_b, cm.gate)


def _count_coincidences(times_a: np.ndarray, times_b: np.ndarray,
                        gate: float) -> int:
    """Greedy gate matching over two sorted click streams.

    The count equals a walk with one pointer per stream: the current clicks
    match when ``|t_A - t_B| <= gate`` and both pointers advance; otherwise
    the earlier click is dropped.  Rounded subtraction is monotone, so no
    match spans a gap wider than the gate in the merged stream, which cuts
    it into clusters.  A cluster of two clicks is one match if they are on
    different arms (their gap is ``|t_A - t_B|``) and none otherwise, so
    one elementwise pass counts those.  The walk runs on the clusters of
    three or more clicks on both arms at once, one step per round, until
    every cluster has run out of clicks on one arm.
    """
    n_a = len(times_a)
    if n_a == 0 or len(times_b) == 0:
        return 0
    stream = np.concatenate([times_a, times_b])
    order = np.argsort(stream, kind="stable")  # merges the two sorted runs
    on_a = order < n_a
    # True where a cluster starts, and once past the last click
    starts = np.concatenate([[True], np.diff(stream[order]) > gate, [True]])
    matched = int(np.count_nonzero(starts[:-2] & ~starts[1:-1] & starts[2:]
                                   & (on_a[:-1] != on_a[1:])))
    edges = np.flatnonzero(starts)
    longer = np.diff(edges) > 2
    first, stop = edges[:-1][longer], edges[1:][longer]
    # one column per cluster of three or more clicks on both arms: pointer
    # and end on A, then on B; an edge's place on A counts clicks on A before it
    a_before = np.flatnonzero(on_a).searchsorted
    first_a, stop_a = a_before(first), a_before(stop)
    walk = np.stack([first_a, stop_a, first - first_a, stop - stop_a])
    walk = walk[:, (first_a < stop_a) & (first - first_a < stop - stop_a)]
    while walk.shape[1]:
        i, end_a, j, end_b = walk
        dt = times_a[i] - times_b[j]
        hit = np.abs(dt) <= gate
        early = dt < 0
        matched += int(np.count_nonzero(hit))
        i += hit | early
        j += hit | ~early
        walk = walk[:, (i < end_a) & (j < end_b)]
    return matched
