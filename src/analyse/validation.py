"""Document validation: JSON-Schema pass plus cross-reference checks.

Every violation is reported as (document_path, message) so the CLI can list
all problems in one shot instead of failing on the first. The list is a
Checked that also carries the typed value validation built, so the runner and
`analyse design` never load or parse a document a second time.
"""

from __future__ import annotations

import importlib.resources as resources
import math
from pathlib import Path

import jsonschema
import yaml

from . import scenario as scn
from .agents import AgentError
from .design import DesignError, parse_experiment
from .feeders import FeederError
from .grid import GridModelError
from .kernel import KernelError
from .market import MarketError
from .network import NetworkError
from .telemetry import RunSummary

Violation = tuple[str, str]  # (path into the document, message)

_SCHEMA_CACHE: dict[str, dict] = {}


class Checked(list):
    """Violations, and in `value` the ScenarioConfig or Experiment built (None if invalid)."""

    def __init__(self, violations=(), value=None):
        super().__init__(violations)
        self.value = None if self else value


def load_schema(name: str) -> dict:
    if name not in _SCHEMA_CACHE:
        ref = resources.files("analyse").joinpath("schemas", f"{name}.schema.yaml")
        _SCHEMA_CACHE[name] = yaml.safe_load(ref.read_text(encoding="utf-8"))
    return _SCHEMA_CACHE[name]


def document_kind(doc) -> str | None:
    if isinstance(doc, dict):
        kind = doc.get("kind")
        if kind in ("scenario", "experiment", "run"):
            return kind
    return None


def _non_finite(node, path: str = "") -> list[Violation]:
    """NaN and infinities anywhere in a document; no schema type excludes them."""
    if isinstance(node, float) and not math.isfinite(node):
        return [(path or "(document root)", f"{node} is not a finite number")]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [v for key, child in items
            for v in _non_finite(child, f"{path}/{key}" if path else str(key))]


def _schema_errors(doc, name: str) -> Checked:
    validator = jsonschema.Draft202012Validator(load_schema(name))
    errors = []
    for err in sorted(validator.iter_errors(doc), key=lambda e: list(map(str, e.absolute_path))):
        path = "/".join(str(p) for p in err.absolute_path) or "(document root)"
        errors.append((path, err.message))
    return Checked(errors + _non_finite(doc))


def validate_scenario(doc, base_dir: Path) -> Checked:
    errors = _schema_errors(doc, "scenario")
    if errors:
        return errors
    try:
        config = scn.parse_scenario(doc, base_dir)
    except (scn.ScenarioError, AgentError, MarketError, KeyError, ValueError, TypeError) as exc:
        return Checked([("(document)", f"cannot parse scenario: {exc}")])
    return Checked(cross_check(config), config)


def cross_check(config: scn.ScenarioConfig) -> list[Violation]:
    errors: list[Violation] = []

    try:
        config.grid.validate()
    except GridModelError as exc:
        errors.append(("grid", str(exc)))

    names = [l.name for l in config.loads]
    if len(set(names)) != len(names):
        errors.append(("grid/loads", "duplicate load names"))
    names = [s.name for s in config.sgens]
    if len(set(names)) != len(names):
        errors.append(("grid/sgens", "duplicate sgen names"))
    sgen_names = {s.name for s in config.sgens}

    for i, l in enumerate(config.loads):
        if l.profile and l.profile not in config.profiles:
            errors.append((f"grid/loads/{i}/profile", f"unknown load profile {l.profile!r}"))
    for key, path in config.profiles.items():
        if not path.exists():
            errors.append((f"data/load_profiles/{key}/path", f"file not found: {path}"))
    if config.weather_path is not None and not config.weather_path.exists():
        errors.append(("data/weather/path", f"file not found: {config.weather_path}"))
    if config.pv_units and config.weather_path is None:
        errors.append(("data/weather", "pv units declared but no weather series"))

    try:
        config.network.topology.validate()
        topology_ok = True
    except NetworkError as exc:
        errors.append(("network", str(exc)))
        topology_ok = False
    node_ids = {n.node_id for n in config.network.topology.nodes}
    if scn.ADVERSARY_MODEL in node_ids:
        errors.append(("network/nodes", f"node id {scn.ADVERSARY_MODEL!r} is reserved"))

    for i, u in enumerate(config.pv_units):
        if u.sgen not in sgen_names:
            errors.append((f"pv/units/{i}/sgen", f"unknown sgen {u.sgen!r}"))
        if u.host not in node_ids:
            errors.append((f"pv/units/{i}/host", f"unknown network node {u.host!r}"))
    pv_names = [u.name for u in config.pv_units]
    if len(set(pv_names)) != len(pv_names):
        errors.append(("pv/units", "duplicate pv unit names"))

    if config.market.operator_host not in node_ids:
        errors.append(
            ("market/operator_host", f"unknown network node {config.market.operator_host!r}")
        )
    sender_hosts = set()
    for i, b in enumerate(config.market.bidders):
        if b.asset not in sgen_names:
            errors.append((f"market/bidders/{i}/asset", f"unknown sgen {b.asset!r}"))
        if b.host not in node_ids:
            errors.append((f"market/bidders/{i}/host", f"unknown network node {b.host!r}"))
        if b.host == config.market.operator_host or b.host in sender_hosts:
            errors.append(
                (f"market/bidders/{i}/host",
                 f"host {b.host!r} already sends frames; one sender per host")
            )
        sender_hosts.add(b.host)
    assets = [b.asset for b in config.market.bidders]
    if len(set(assets)) != len(assets):
        errors.append(("market/bidders", "duplicate bidder assets"))

    rule_ids = [rc.rule.rule_id for rc in config.network.rules]
    if len(set(rule_ids)) != len(rule_ids):
        errors.append(("network/rules", "duplicate rule ids"))
    for i, rc in enumerate(config.network.rules):
        if rc.rule.at_node not in node_ids:
            errors.append(
                (f"network/rules/{i}/at_node", f"unknown network node {rc.rule.at_node!r}")
            )
    for i, (node, _) in enumerate(config.network.restartable):
        if node not in node_ids:
            errors.append((f"network/restartable/{i}/node", f"unknown network node {node!r}"))

    if errors or not topology_ok:
        return errors  # endpoint enumeration needs a structurally sound scenario

    try:
        kernel = scn.assemble(config, 0, lambda *a: None, ({}, None))
    except (FeederError, KernelError) as exc:
        return [("(document)", f"cannot assemble scenario: {exc}")]
    agent = config.agent
    for i, s in enumerate(agent.sensors):
        if not kernel.has_output(tuple(s.id.split("."))):
            errors.append(
                (f"agents/0/sensors/{i}/id", f"sensor path {s.id!r} does not resolve to an output")
            )
    for i, a in enumerate(agent.actuators):
        if not kernel.is_free_input(tuple(a.id.split("."))):
            errors.append(
                (f"agents/0/actuators/{i}/id",
                 f"actuator path {a.id!r} does not resolve to a free input")
            )
    if agent.learner.kind == "replay" and not agent.learner.replay:
        errors.append(("agents/0/replay", "replay agent needs setpoint rows"))
    if agent.objective.kind == "profit" and not agent.objective.agents:
        errors.append(("agents/0/objective/agents", "profit objective needs market agent ids"))
    # A weight names a scalar aggregate or <map>.<agent> for a market agent.
    aggregates = RunSummary().aggregates()
    market_agents = {b.agent_id for b in config.market.bidders}
    for name in agent.objective.weights:
        head, _, market_agent = name.partition(".")
        scalar = name in aggregates and not isinstance(aggregates[name], dict)
        if not scalar and not (isinstance(aggregates.get(head), dict)
                               and market_agent in market_agents):
            errors.append(
                (f"agents/0/objective/weights/{name}", f"weight {name!r} names no aggregate")
            )
    return errors


def validate_experiment(doc, base_dir: Path) -> Checked:
    errors = _schema_errors(doc, "experiment")
    if errors:
        return errors
    scenario_path = scn.resolve_data_path(doc["base_scenario"], base_dir)
    if not scenario_path.exists():
        return Checked([("base_scenario", f"file not found: {scenario_path}")])
    try:
        base = scn.load_document(scenario_path)
    except scn.ScenarioError as exc:
        return Checked([("base_scenario", f"cannot load base scenario: {exc}")])
    errors = [
        ("base_scenario", f"(in {scenario_path.name}) {path}: {msg}")
        for path, msg in validate_scenario(base, scenario_path.parent)
    ]
    if errors:
        return Checked(errors)
    try:
        return Checked([], parse_experiment(doc, base))
    except DesignError as exc:
        return Checked([("(document)", str(exc))])


def validate_run(doc, base_dir: Path) -> Checked:
    errors = _schema_errors(doc, "run")
    if errors:
        return errors
    inner = validate_scenario(doc["scenario"], base_dir)
    return Checked([(f"scenario/{path}", msg) for path, msg in inner], inner.value)


def validate_document(doc, base_dir: Path) -> Checked:
    validate = {"scenario": validate_scenario, "experiment": validate_experiment,
                "run": validate_run}.get(document_kind(doc))
    if validate is None:
        return Checked([("kind", "document kind must be one of scenario, experiment, run")])
    return validate(doc, base_dir)
