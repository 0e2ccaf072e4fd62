"""Document validation: JSON-Schema pass plus cross-reference checks.

Every violation is reported as (document_path, message) so the CLI can list
all problems in one shot instead of failing on the first. The list is a
Checked that also carries the typed value validation built, a scenario's with
its data series read, so the runner and `analyse design` never load or parse a
document, or read a series, a second time.

The schema pass is checked here, for the keywords the packaged schemas use,
with the paths, messages and order of jsonschema's Draft 2020-12 validator
(tests/test_validation.py holds it to that); load_schema refuses a schema
with any other keyword, so an edit cannot weaken validation unnoticed.
"""

from __future__ import annotations

import importlib.resources as resources
import math
import numbers
from pathlib import Path

from . import scenario as scn
from .design import MASK64, DesignError, parse_experiment, resolve_path
from .feeders import FeederError
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
        schema = scn.parse_yaml(ref.read_bytes(), ref)
        _refuse_unsupported(schema, f"{name}.schema.yaml")
        _SCHEMA_CACHE[name] = schema
    return _SCHEMA_CACHE[name]


# -- the schema checker ------------------------------------------------------

_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}
_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items", "minItems",
             "maxItems", "enum", "const", "minimum", "maximum", "exclusiveMinimum", "minLength"}
_ANNOTATIONS = {"$schema", "$id", "title", "default"}


def _refuse_unsupported(schema, where: str) -> None:
    """Raise ValueError if `schema` uses anything `_check` does not implement."""
    if not isinstance(schema, dict):
        raise ValueError(f"{where}: a schema must be a mapping")
    unknown = schema.keys() - _KEYWORDS - _ANNOTATIONS
    if unknown:
        raise ValueError(f"{where}: unsupported schema keyword(s) {sorted(unknown)}")
    types = schema.get("type", [])
    if set([types] if isinstance(types, str) else types) - _TYPES.keys():
        raise ValueError(f"{where}: unknown type in {types!r}")
    constants = ([schema["const"]] if "const" in schema else []) + schema.get("enum", [])
    if not all(isinstance(c, (str, int, float)) or c is None for c in constants):
        raise ValueError(f"{where}: const and enum values must be scalars")
    for name, sub in schema.get("properties", {}).items():
        _refuse_unsupported(sub, f"{where}/properties/{name}")
    if not isinstance(schema.get("additionalProperties", True), bool):
        _refuse_unsupported(schema["additionalProperties"], f"{where}/additionalProperties")
    if "items" in schema:
        _refuse_unsupported(schema["items"], f"{where}/items")


def _same(value, constant) -> bool:
    """JSON equality with a scalar constant: True is not 1, 1.0 is."""
    if isinstance(value, bool) or isinstance(constant, bool):
        return value is constant
    return value == constant


def _check(node, schema: dict, path: tuple, errors: list) -> None:
    """Append (path, message) for each way `node` breaks `schema`, in jsonschema's order:
    the schema's keywords in turn, descending into a child where one applies."""
    for keyword, value in schema.items():
        if keyword == "type":
            types = [value] if isinstance(value, str) else value
            if not any(_TYPES[t](node) for t in types):
                errors.append((path, f"{node!r} is not of type {', '.join(map(repr, types))}"))
        elif keyword == "properties":
            if isinstance(node, dict):
                for name, sub in value.items():
                    if name in node:
                        _check(node[name], sub, (*path, name), errors)
        elif keyword == "required":
            if isinstance(node, dict):
                errors += [(path, f"{name!r} is a required property")
                           for name in value if name not in node]
        elif keyword == "additionalProperties":
            if isinstance(node, dict):
                extras = [k for k in node if k not in schema.get("properties", {})]
                if isinstance(value, dict):
                    for key in extras:
                        _check(node[key], value, (*path, key), errors)
                elif value is False and extras:
                    listed = ", ".join(map(repr, sorted(extras, key=str)))
                    verb = "was" if len(extras) == 1 else "were"
                    errors.append(
                        (path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))
        elif keyword == "items":
            if isinstance(node, list):
                for i, item in enumerate(node):
                    _check(item, value, (*path, i), errors)
        elif keyword in ("minItems", "minLength"):
            if isinstance(node, list if keyword == "minItems" else str) and len(node) < value:
                errors.append((path, f"{node!r} " + ("should be non-empty" if value == 1
                                                     else "is too short")))
        elif keyword == "maxItems":
            if isinstance(node, list) and len(node) > value:
                errors.append((path, f"{node!r} " + ("is expected to be empty" if value == 0
                                                     else "is too long")))
        elif keyword == "const":
            if not _same(node, value):
                errors.append((path, f"{value!r} was expected"))
        elif keyword == "enum":
            if not any(_same(node, v) for v in value):
                errors.append((path, f"{node!r} is not one of {value!r}"))
        elif keyword in ("minimum", "maximum", "exclusiveMinimum") and _TYPES["number"](node):
            if keyword == "minimum" and node < value:
                errors.append((path, f"{node!r} is less than the minimum of {value!r}"))
            elif keyword == "maximum" and node > value:
                errors.append((path, f"{node!r} is greater than the maximum of {value!r}"))
            elif keyword == "exclusiveMinimum" and node <= value:
                errors.append(
                    (path, f"{node!r} is less than or equal to the minimum of {value!r}"))


def sorted_violations(errors) -> list[Violation]:
    """(path parts, message) pairs as Violations, ordered by path; a list
    index (or an integer key) sorts as a number, so item 2 comes before item 10."""
    def key(error):
        return [(0, p) if isinstance(p, int) else (1, str(p)) for p in error[0]]

    return [("/".join(_printable(str(p)) for p in path) or "(document root)", message)
            for path, message in sorted(errors, key=key)]


def schema_violations(doc, schema: dict) -> list[Violation]:
    errors: list = []
    _check(doc, schema, (), errors)
    return sorted_violations(errors)


def document_kind(doc) -> str | None:
    if isinstance(doc, dict):
        kind = doc.get("kind")
        if kind in ("scenario", "experiment", "run"):
            return kind
    return None


def _printable(text: str) -> str:
    """text, or its repr if text does not encode as UTF-8: a lone surrogate,
    which the pure YAML loader reads from "\\ud800", cannot be printed."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return repr(text)
    return text


def _non_finite(node, path: str = "") -> list[Violation]:
    """NaN, infinities, integers too large for a float, string values or
    mapping keys that do not encode as UTF-8, mapping keys that are not
    strings, and values of no JSON type (a YAML date, `!!binary` or `!!set`),
    anywhere in a document; no schema type excludes them."""
    if isinstance(node, float) and not math.isfinite(node):
        return [(path or "(document root)", f"{node} is not a finite number")]
    if isinstance(node, int) and not isinstance(node, bool):
        try:
            float(node)
        except OverflowError:
            return [(path or "(document root)", "integer too large for a float")]
    if isinstance(node, str) and _printable(node) != node:
        return [(path or "(document root)", f"{node!r} does not encode as UTF-8")]
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    elif node is None or isinstance(node, (str, int, float)):  # bool is an int
        return []
    else:
        return [(path or "(document root)", f"{node!r} is not a JSON value")]
    errors = []
    for key, child in items:
        part = _printable(str(key))
        where = f"{path}/{part}" if path else part
        if part != str(key):
            errors.append((where, f"key {key!r} does not encode as UTF-8"))
        elif isinstance(node, dict) and not isinstance(key, str):
            errors.append((where, f"key {key!r} is not a string"))
        errors += _non_finite(child, where)
    return errors


def _schema_errors(doc, name: str) -> Checked:
    return Checked(schema_violations(doc, load_schema(name)) + _non_finite(doc))


def with_defaults(node, schema: dict):
    """A copy of `node` with each absent property that has a schema `default`
    filled in, also inside a default it filled in; the walk follows
    `properties` and `items`. It builds new mappings and lists throughout, so
    it changes neither `node` nor the schema's default values."""
    if isinstance(node, dict):
        properties = schema.get("properties", {})
        filled = {key: with_defaults(value, properties.get(key, {}))
                  for key, value in node.items()}
        for name, sub in properties.items():
            if name not in node and "default" in sub:
                filled[name] = with_defaults(sub["default"], sub)
        return filled
    if isinstance(node, list):
        return [with_defaults(item, schema.get("items", {})) for item in node]
    return node


def validate_scenario(doc, base_dir: Path) -> Checked:
    """The checks above, then the data series read into the config's `series`.
    A file that cannot be read raises OSError."""
    errors = _schema_errors(doc, "scenario")
    if errors:
        return errors
    # through the module attributes, where the traced benchmark wraps them
    config = scn.parse_scenario(with_defaults(doc, load_schema("scenario")), base_dir)
    errors = cross_check(config)
    if errors:
        return Checked(errors)
    try:
        series = scn.load_data_series(config)
    except FeederError as exc:
        return Checked([(exc.field, str(exc))])
    return Checked([], config._replace(series=series))


def _reached(first, edges, ends) -> set:
    """The ends reachable from first over the undirected edges (pairs) that
    join two of `ends`; an edge to an undeclared end joins nothing."""
    adjacency: dict = {}
    for a, b in edges:
        if a in ends and b in ends:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
    reached, stack = {first}, [first]
    while stack:
        new = adjacency.get(stack.pop(), set()) - reached
        reached |= new
        stack.extend(new)
    return reached


def cross_check(config: scn.ScenarioConfig) -> list[Violation]:
    errors: list[Violation] = []

    grid, market, network = config.grid, config.market, config.network
    nodes, links = network.topology.nodes, network.topology.links
    for where, field, ids in (
        ("grid/buses", "id", [b.bus_id for b in grid.buses]),
        ("grid/loads", "name", [l.name for l in grid.loads]),
        ("grid/sgens", "name", [s.name for s in grid.sgens]),
        ("pv/units", "name", [u.name for u in config.pv_units]),
        ("pv/units", "sgen", [u.sgen for u in config.pv_units]),
        ("market/bidders", "asset", [b.asset for b in market.bidders]),
        ("network/nodes", "id", [n.node_id for n in nodes]),
        ("network/rules", "rule_id", [r.rule_id for r in network.rules]),
    ):
        seen = set()
        for i, value in enumerate(ids):
            if value in seen:
                errors.append((f"{where}/{i}/{field}", f"duplicate {field} {value!r}"))
            seen.add(value)

    node_ids = {n.node_id for n in nodes}
    references = [(f"network/links/{i}/{end}", getattr(link, end))
                  for i, link in enumerate(links) for end in ("a", "b")]
    references += [(f"pv/units/{i}/host", u.host) for i, u in enumerate(config.pv_units)]
    references.append(("market/operator_host", market.operator_host))
    references += [(f"market/bidders/{i}/host", b.host) for i, b in enumerate(market.bidders)]
    references += [(f"network/rules/{i}/at_node", r.at_node)
                   for i, r in enumerate(network.rules)]
    references += [(f"network/restartable/{i}/node", node)
                   for i, (node, _) in enumerate(network.restartable)]
    errors += [(path, f"unknown network node {node!r}")
               for path, node in references if node not in node_ids]

    bus_ids = {b.bus_id for b in grid.buses}
    slacks = sum(b.kind == "slack" for b in grid.buses)
    if slacks != 1:
        errors.append(("grid/buses", f"exactly one slack bus required, found {slacks}"))
    buses = [(f"grid/lines/{i}/{end}", bus) for i, line in enumerate(grid.lines)
             for end, bus in (("from", line.from_bus), ("to", line.to_bus))]
    buses += [(f"grid/loads/{i}/bus", l.bus) for i, l in enumerate(grid.loads)]
    buses += [(f"grid/sgens/{i}/bus", s.bus) for i, s in enumerate(grid.sgens)]
    errors += [(path, f"unknown bus {bus}") for path, bus in buses if bus not in bus_ids]
    first_bus = grid.buses[0].bus_id
    reached = _reached(first_bus, [(l.from_bus, l.to_bus) for l in grid.lines], bus_ids)
    errors += [(f"grid/buses/{i}/id", f"bus {b.bus_id} is not connected to bus {first_bus}")
               for i, b in enumerate(grid.buses) if b.bus_id not in reached]
    errors += [(f"grid/sgens/{i}/q_mvar",
                f"q_mvar {s.q_mvar} outside [{s.q_min_mvar}, {s.q_max_mvar}]")
               for i, s in enumerate(grid.sgens)
               if not s.q_min_mvar <= s.q_mvar <= s.q_max_mvar]

    for i, link in enumerate(links):
        if link.a == link.b:
            errors.append((f"network/links/{i}/b", f"link from node {link.a!r} to itself"))
    first = nodes[0].node_id
    reached = _reached(first, [(l.a, l.b) for l in links], node_ids)
    for i, n in enumerate(nodes):
        if n.node_id not in reached:
            errors.append((f"network/nodes/{i}/id",
                           f"node {n.node_id!r} is not connected to node {first!r}"))
        if n.node_id == scn.ADVERSARY_MODEL:
            errors.append((f"network/nodes/{i}/id", f"node id {n.node_id!r} is reserved"))

    for i, l in enumerate(grid.loads):
        if l.profile and l.profile not in config.profiles:
            errors.append((f"grid/loads/{i}/profile", f"unknown load profile {l.profile!r}"))
    for key, path in config.profiles.items():
        if not path.exists():
            errors.append((f"data/load_profiles/{key}/path", f"file not found: {path}"))
    if config.weather_path is not None and not config.weather_path.exists():
        errors.append(("data/weather/path", f"file not found: {config.weather_path}"))
    if config.pv_units and config.weather_path is None:
        errors.append(("data/weather", "pv units declared but no weather series"))

    # A PV unit starts at q 0, and the market's clearing baseline sets each
    # asset's q to 0, so an sgen that either names needs a q range holding 0;
    # it is reported once, at the first PV unit naming it, else at its bidder.
    sgens = {s.name: s for s in grid.sgens}
    named = [(f"pv/units/{i}/sgen", u.sgen) for i, u in enumerate(config.pv_units)]
    named += [(f"market/bidders/{i}/asset", b.asset) for i, b in enumerate(market.bidders)]
    checked = set()
    for path, name in named:
        sgen = sgens.get(name)
        if sgen is None:
            errors.append((path, f"unknown sgen {name!r}"))
        elif name not in checked and not sgen.q_min_mvar <= 0.0 <= sgen.q_max_mvar:
            errors.append((path, f"sgen {name!r}: q range must contain zero"))
        checked.add(name)

    band = market.band
    if not band.v_min_pu < band.v_max_pu:
        errors.append(("market/band", "need v_min_pu < v_max_pu"))
    sender_hosts = {market.operator_host}
    for i, b in enumerate(market.bidders):
        if b.host in sender_hosts:
            errors.append(
                (f"market/bidders/{i}/host",
                 f"host {b.host!r} already sends frames; one sender per host")
            )
        sender_hosts.add(b.host)

    for i, r in enumerate(network.rules):
        if r.active_from > r.active_until:
            errors.append((f"network/rules/{i}/active_until",
                           f"rule {r.rule_id}: active_from > active_until"))

    agent = config.agent
    for i, s in enumerate(agent.sensors):
        if not s.lo < s.hi:
            errors.append((f"agents/0/sensors/{i}/hi", f"sensor {s.id}: need lo < hi"))
    for i, a in enumerate(agent.actuators):
        if not a.lo < a.hi:
            errors.append((f"agents/0/actuators/{i}/hi", f"actuator {a.id}: need lo < hi"))
        elif not a.lo <= a.default <= a.hi:
            errors.append((f"agents/0/actuators/{i}/default",
                           f"actuator {a.id}: default outside [lo, hi]"))

    if errors:
        return errors  # what follows needs a structurally sound scenario

    bidder_hosts = {b.asset: b.host for b in market.bidders}
    for i, u in enumerate(config.pv_units):
        if bidder_hosts.get(u.sgen, u.host) != u.host:  # its dispatch arrives there
            errors.append((f"pv/units/{i}/host", f"sgen {u.sgen!r} is bid from host "
                           f"{bidder_hosts[u.sgen]!r}, so its unit must be on that host"))

    kernel = scn.assemble(config, 0, lambda *a: None)
    for i, s in enumerate(agent.sensors):
        endpoint = tuple(s.id.split("."))
        if not kernel.has_output(endpoint):
            errors.append(
                (f"agents/0/sensors/{i}/id", f"sensor path {s.id!r} does not resolve to an output")
            )
        elif endpoint[2] in scn.NON_NUMERIC_ATTRS:
            errors.append((f"agents/0/sensors/{i}/id",
                           f"sensor path {s.id!r} carries messages or objects, not a number"))
    for i, a in enumerate(agent.actuators):
        endpoint = tuple(a.id.split("."))
        if not kernel.is_free_input(endpoint):
            errors.append(
                (f"agents/0/actuators/{i}/id",
                 f"actuator path {a.id!r} does not resolve to a free input")
            )
        elif endpoint[2] in scn.NON_NUMERIC_ATTRS:
            errors.append((f"agents/0/actuators/{i}/id",
                           f"actuator path {a.id!r} carries messages or objects, not a number"))
    if agent.learner.kind == "cem":
        candidates = agent.learner.population * agent.learner.generations
        for i, phase in enumerate(config.schedule):
            if phase.mode == "train" and phase.episodes != candidates:
                errors.append((f"schedule/{i}/episodes",
                               f"a cem train phase runs population x generations = "
                               f"{candidates} episodes, not {phase.episodes}"))
    if agent.learner.kind == "replay":
        if not agent.learner.replay:
            errors.append(("agents/0/replay", "replay agent needs setpoint rows"))
        for i, row in enumerate(agent.learner.replay):
            if len(row) != len(agent.actuators):
                errors.append((f"agents/0/replay/{i}", f"replay row has {len(row)} values "
                               f"for {len(agent.actuators)} actuators"))
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
    names = set()
    for i, factor in enumerate(doc.get("factors", [])):
        if factor["name"] in names:
            errors.append((f"factors/{i}/name", f"duplicate factor name {factor['name']!r}"))
        names.add(factor["name"])
        try:
            resolve_path(base, factor["path"])
        except DesignError as exc:
            errors.append((f"factors/{i}/path", str(exc)))
    if doc.get("strategy") == "random" and "samples" not in doc:
        errors.append(("samples", "random strategy needs samples"))
    if doc.get("base_seed", 0) > MASK64:
        errors.append(("base_seed", "must fit in 64 bits"))
    if errors:
        return Checked(errors)
    return Checked([], parse_experiment(doc, base))


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
