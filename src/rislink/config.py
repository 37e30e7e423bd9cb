"""System configuration: fading presets, scenario files, and validation.

The scenario file format is flat ``key = value`` text with ``#`` comments.
Fading can be given as a preset name or as explicit parameter blocks; an
identical-element shorthand applies one cascade block to all N elements,
and ``element<i>_hop<j>`` keys override individual hops.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .channel import LinkGeometry, budget, relay_hop_budgets
from .dgg import CascadeParams, DggParams
from .exact_stats import RisEnsemble

__all__ = [
    "OMEGA1",
    "OMEGA2",
    "PRESETS",
    "SCENARIOS",
    "SystemConfig",
    "ScenarioConfig",
    "ParseError",
    "ValidationError",
    "default_geometry",
    "preset_fading",
    "preset_system",
    "load_config",
    "parse_config_text",
    "parse_methods",
    "setting_problems",
    "config_hash",
]

# Common scale parameters of every fading preset.
OMEGA1 = 1.5793
OMEGA2 = 0.9671

# Preset name -> ((RIS-hop shapes), (direct-link shapes)) as
# ((alpha1, beta1), (alpha2, beta2)) pairs; both RIS hops are identical.
PRESETS = {
    "FP1": (((2.0, 1.0), (2.0, 2.0)), ((1.5, 1.5), (1.0, 1.5))),
    "FP2": (((1.0, 1.0), (1.0, 2.0)), ((2.0, 1.5), (2.0, 1.5))),
    "FP3": (((1.0, 1.5), (1.0, 2.5)), ((2.0, 2.1), (2.0, 2.1))),
}

# Links a sweep can evaluate, each with the branches it combines as (reflected, direct):
# both, reflected only, direct only; the decode-and-forward relay comparator has none.
_BRANCH_SETS = {"combined": (True, True), "ris_only": (True, False), "dt_only": (False, True), "df_relay": None}
SCENARIOS = tuple(_BRANCH_SETS)
# most points a pt_start_dbm/pt_stop_dbm/pt_step_db range may expand to
_MAX_SWEEP_POINTS = 10_000
# most reflecting elements a scenario may have
_MAX_ELEMENTS = 10_000


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        ctx = []
        if line is not None:
            ctx.append(f"line {line}")
        if key is not None:
            ctx.append(f"key '{key}'")
        super().__init__(f"{message}" + (f" ({', '.join(ctx)})" if ctx else ""))
        self.line = line
        self.key = key


class ValidationError(ValueError):
    """Carries every violated invariant, not just the first."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(problems))
        self.problems = list(problems)


# Reference geometry, each value overridable by the scenario key of its name:
# 6 GHz, 10/0 dBi gains, 50 m + 100 m segments; and the receiver noise floor.
_GEOMETRY_KEYS = {
    "freq_hz": 6e9,
    "gain_tx_dbi": 10.0,
    "gain_rx_dbi": 0.0,
    "d1_m": 50.0,
    "d2_m": 100.0,
}
_NOISE_DBM = -74.0


def default_geometry() -> LinkGeometry:
    """Reference geometry of every preset system and scenario file."""
    return LinkGeometry(**_GEOMETRY_KEYS)


def _dgg_from_shapes(shapes) -> DggParams:
    (a1, b1), (a2, b2) = shapes
    return DggParams(alpha1=a1, beta1=b1, alpha2=a2, beta2=b2, omega1=OMEGA1, omega2=OMEGA2)


def preset_fading(name: str) -> tuple[CascadeParams, DggParams]:
    """(per-element cascade, direct-link fading) for a named preset."""
    if name not in PRESETS:
        raise KeyError(f"unknown fading preset '{name}', expected one of {sorted(PRESETS)}")
    ris_shapes, dt_shapes = PRESETS[name]
    hop = _dgg_from_shapes(ris_shapes)
    return CascadeParams(hop1=hop, hop2=hop), _dgg_from_shapes(dt_shapes)


@dataclass(frozen=True)
class SystemConfig:
    """Physical scenario: geometry, noise floor, and all fading blocks."""

    geometry: LinkGeometry
    noise_dbm: float
    elements: tuple[CascadeParams, ...]
    direct: DggParams

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("SystemConfig needs at least one reflecting element")

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def ensemble(self) -> RisEnsemble:
        return self.branches("combined")

    def branches(self, scenario: str) -> RisEnsemble | None:
        """The branch set that the exact route evaluates; None for the relay."""
        branch_set = _BRANCH_SETS[scenario]
        if branch_set is None:
            return None
        reflected, direct = branch_set
        return RisEnsemble(self.elements if reflected else (), self.direct if direct else None)

    def summands(self, scenario: str, pt_dbm: float) -> tuple[tuple[tuple[tuple, float], ...], str]:
        """The scenario's SNR at pt_dbm as summands ((fading blocks, scale), ...) and their join, "sum" or
        "min". A summand is its blocks' summed amplitudes squared, times its average-SNR scale."""
        if _BRANCH_SETS[scenario] is None:  # the relay: one summand per hop of the first element
            hops, (g1, g2) = self.elements[0], relay_hop_budgets(self.geometry, pt_dbm, self.noise_dbm)
            return (((hops.hop1,), g1), ((hops.hop2,), g2)), "min"
        reflected, direct = _BRANCH_SETS[scenario]
        bud = budget(self.geometry, pt_dbm, self.noise_dbm)
        return ((self.elements, bud.gamma0_ris),) * reflected + (((self.direct,), bud.gamma0_d),) * direct, "sum"


def preset_system(name: str, n_elements: int) -> SystemConfig:
    """N identical elements of a named preset, at the reference geometry and noise floor."""
    cascade, direct = preset_fading(name)
    elements = (cascade,) * n_elements
    return SystemConfig(geometry=default_geometry(), noise_dbm=_NOISE_DBM, elements=elements, direct=direct)


@dataclass(frozen=True)
class ScenarioConfig:
    """One sweep: system + sweep axis + requested methods + MC settings."""

    system: SystemConfig
    pt_dbm: tuple[float, ...]
    gamma_th_db: float
    modulation_a: float
    modulation_b: float
    methods: tuple[str, ...]
    mc_trials: int
    mc_seed: int
    scenario: str
    output: str | None

    def __post_init__(self):
        object.__setattr__(self, "pt_dbm", tuple(float(p) for p in self.pt_dbm))
        object.__setattr__(self, "methods", tuple(self.methods))

    @property
    def gamma_th(self) -> float:
        return 10.0 ** (self.gamma_th_db / 10.0)


_VALID_METHODS = ("exact", "asymptotic", "mc")


def _parse_fading_block(value: str, key: str, line: int) -> DggParams:
    parts = value.split()
    if len(parts) not in (4, 6):
        raise ParseError(
            "fading block needs 'alpha1 beta1 alpha2 beta2 [omega1 omega2]'", line, key
        )
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise ParseError("fading block values must be numbers", line, key) from None
    omegas = nums[4:6] if len(nums) == 6 else [OMEGA1, OMEGA2]
    try:
        return DggParams(nums[0], nums[1], nums[2], nums[3], omegas[0], omegas[1])
    except ValueError as e:
        raise ParseError(str(e), line, key) from None


def parse_methods(value: str, line: int | None = None) -> tuple[str, ...]:
    """Distinct method names from a comma- or space-separated list."""
    methods = tuple(value.replace(",", " ").split())
    for i, m in enumerate(methods):
        if m not in _VALID_METHODS:
            raise ParseError(f"unknown method '{m}', expected {_VALID_METHODS}", line, "methods")
        if m in methods[:i]:
            raise ParseError(f"method '{m}' given twice", line, "methods")
    return methods


def setting_problems(methods: tuple[str, ...], mc_trials: int, mc_seed: int) -> list[str]:
    """Problems with the settings that scenario files and command-line overrides share."""
    problems = []
    if not methods:
        problems.append("at least one method is required")
    if not 10_000 <= mc_trials <= 1_000_000_000:  # at most 10,000 Monte-Carlo seeding units
        problems.append(f"mc_trials must be in 10000..1000000000, got {mc_trials}")
    if mc_seed < 0:
        problems.append(f"mc_seed must be >= 0, got {mc_seed}")
    return problems


def parse_config_text(text: str) -> ScenarioConfig:
    entries: dict[str, tuple[str, int]] = {}
    element_keys: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError("empty key or value", lineno, key or None)
        target = element_keys if key.startswith("element") else entries
        if key in target:
            raise ParseError("duplicate key", lineno, key)
        target[key] = (value, lineno)

    def take(key: str, default=None):
        return entries.pop(key, (default, None))

    def take_float(key: str, default=None):
        value, lineno = take(key, default)
        if value is None:
            return None
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise ParseError("expected a number", lineno, key) from None
        if not math.isfinite(number):
            raise ParseError("expected a finite number", lineno, key)
        return number

    def take_int(key: str, default=None):
        value, lineno = take(key, default)
        if value is None:
            return None
        try:
            return int(str(value))
        except ValueError:
            raise ParseError("expected an integer", lineno, key) from None

    problems: list[str] = []

    geom_kwargs = {}
    for key, default in _GEOMETRY_KEYS.items():
        geom_kwargs[key] = take_float(key, default)
    noise_dbm = take_float("noise_dbm", _NOISE_DBM)

    n_elements = take_int("n_elements")
    if n_elements is None:
        problems.append("n_elements is required")
    elif not 1 <= n_elements <= _MAX_ELEMENTS:  # checked before the element list is built
        problems.append(f"n_elements must be in 1..{_MAX_ELEMENTS}, got {n_elements}")
        n_elements = None

    preset_value, preset_line = take("fading_preset")
    ris_value, ris_line = take("ris_fading")
    direct_value, direct_line = take("direct_fading")

    cascade = direct = None
    if preset_value and preset_value != "custom":
        if preset_value not in PRESETS:
            raise ParseError("unknown preset", preset_line, "fading_preset")
        cascade, direct = preset_fading(preset_value)
    if ris_value:
        hop = _parse_fading_block(ris_value, "ris_fading", ris_line)
        cascade = CascadeParams(hop1=hop, hop2=hop)
    if direct_value:
        direct = _parse_fading_block(direct_value, "direct_fading", direct_line)
    if cascade is None:
        problems.append("no RIS fading given (need fading_preset or ris_fading)")
    if direct is None:
        problems.append("no direct-link fading given (need fading_preset or direct_fading)")

    elements = list((cascade,) * n_elements) if (cascade and n_elements) else []
    slots = set()
    for key, (value, lineno) in element_keys.items():
        # element<i>_hop<j> = fading block, 1-based indices
        parts = key.split("_")
        if len(parts) != 2 or not parts[0][7:].isdigit() or parts[1] not in ("hop1", "hop2"):
            raise ParseError("expected element<i>_hop1 or element<i>_hop2", lineno, key)
        idx = int(parts[0][7:]) - 1
        if (idx, parts[1]) in slots:  # element1_hop1 and element01_hop1 name one hop
            raise ParseError("duplicate key", lineno, key)
        slots.add((idx, parts[1]))
        if not elements:
            continue
        if not 0 <= idx < len(elements):
            problems.append(f"{key}: element index out of range 1..{len(elements)}")
            continue
        hop = _parse_fading_block(value, key, lineno)
        elements[idx] = replace(elements[idx], **{parts[1]: hop})

    pt_value, pt_line = take("pt_dbm")
    for key in ("pt_start_dbm", "pt_stop_dbm", "pt_step_db"):
        if pt_value and key in entries:
            raise ParseError("pt_dbm and a pt_start/stop/step range both given", entries[key][1], key)
    pt_start = take_float("pt_start_dbm")
    pt_stop = take_float("pt_stop_dbm")
    pt_step = take_float("pt_step_db", 5.0)
    sweep: list[float] = []
    if pt_value:
        try:
            sweep = [float(p) for p in pt_value.replace(",", " ").split()]
        except ValueError:
            raise ParseError("expected numbers", pt_line, "pt_dbm") from None
        if not sweep:
            raise ParseError("expected numbers", pt_line, "pt_dbm")
        if not all(math.isfinite(p) for p in sweep):
            raise ParseError("expected finite numbers", pt_line, "pt_dbm")
    elif pt_start is None or pt_stop is None:
        problems.append("empty transmit-power sweep (need pt_dbm or pt_start/stop)")
    elif pt_step <= 0:
        problems.append("pt_step_db must be positive")
    else:
        # the point count is checked before any point is built; it may be inf
        steps = (pt_stop - pt_start) / pt_step + 1e-9
        if steps >= _MAX_SWEEP_POINTS:
            problems.append(f"pt_start_dbm..pt_stop_dbm range has more than {_MAX_SWEEP_POINTS} points")
        elif steps >= 0:
            sweep = [pt_start + k * pt_step for k in range(int(steps) + 1)]
        else:
            problems.append("empty transmit-power sweep (pt_stop_dbm is below pt_start_dbm)")

    methods = parse_methods(*take("methods", "exact,mc"))
    scenario, scenario_line = take("scenario", "combined")
    if scenario not in SCENARIOS:
        raise ParseError(f"unknown scenario, expected one of {SCENARIOS}", scenario_line, "scenario")

    modulation_a = take_float("modulation_a", 1.0)
    modulation_b = take_float("modulation_b", 1.0)
    if modulation_a <= 0 or modulation_b <= 0:
        problems.append("modulation_a and modulation_b must be positive")
    gamma_th_db = take_float("gamma_th_db", 0.0)
    try:
        threshold_ok = 10.0 ** (gamma_th_db / 10.0) > 0.0
    except OverflowError:
        threshold_ok = False
    if not threshold_ok:
        problems.append(f"gamma_th_db = {gamma_th_db:g} gives no positive finite threshold")
    mc_trials = take_int("mc_trials", 1_000_000)
    mc_seed = take_int("mc_seed", 0)
    problems += setting_problems(methods, mc_trials, mc_seed)
    output, _ = take("output")
    for key, (_, lineno) in entries.items():  # left over: no take() consumes it
        raise ParseError("unknown key", lineno, key)

    try:
        geometry = LinkGeometry(**geom_kwargs)
    except ValueError as e:
        problems.append(str(e))
        geometry = None
    else:
        for pt in sweep:
            try:
                budget(geometry, pt, noise_dbm)
            except (ArithmeticError, ValueError):
                problems.append(f"pt_dbm = {pt:g} gives no positive finite link budget")

    if problems:
        raise ValidationError(problems)
    system = SystemConfig(
        geometry=geometry, noise_dbm=noise_dbm, elements=tuple(elements), direct=direct
    )
    return ScenarioConfig(
        system=system,
        pt_dbm=tuple(sweep),
        gamma_th_db=gamma_th_db,
        modulation_a=modulation_a,
        modulation_b=modulation_b,
        methods=methods,
        mc_trials=mc_trials,
        mc_seed=mc_seed,
        scenario=scenario,
        output=output,
    )


def load_config(path: str) -> ScenarioConfig:
    """Read and parse a scenario file; a file that is not UTF-8 is a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"scenario file is not UTF-8 text: {e}") from None
    return parse_config_text(text)


def config_hash(cfg: ScenarioConfig) -> str:
    """Short digest of every field but the output path, read from the dataclasses' own repr."""
    return hashlib.sha256(repr(replace(cfg, output=None)).encode()).hexdigest()[:16]
