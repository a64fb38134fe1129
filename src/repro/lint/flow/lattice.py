"""The taint lattice and the declarative flow-rule configuration model.

A taint is a ``frozenset`` of string labels; joins are set unions, so the
lattice is the powerset of the label alphabet ordered by inclusion.  Two
alphabets coexist:

* *semantic* labels (:data:`TENANT_KEY`, :data:`PLAINTEXT`, ...) introduced
  by :class:`SourceSpec` matches and consumed by :class:`SinkSpec` /
  :class:`StoreSinkSpec` matches; and
* *parameter placeholders* (``@p0``, ``@p1``, ...) seeded on every function
  parameter so one intraprocedural pass doubles as the function's summary:
  a placeholder surviving to the return value means the parameter flows to
  the return, a placeholder reaching a sink means callers passing tainted
  arguments reach that sink.

Sanitizers *remove* labels: a value returned by an ``encrypt*`` call no
longer carries :data:`PLAINTEXT` no matter how tainted its inputs were.
"""

from dataclasses import dataclass

Taint = frozenset[str]

EMPTY: Taint = frozenset()

TENANT_KEY = "tenant-key"
"""Key material derived for one tenant (F1)."""

MASTER_KEY = "master-key"
"""The controller's raw master key material (F1)."""

PLAINTEXT = "plaintext"
"""Output of a decrypt path that has not been re-encrypted (F2)."""

COUNTER = "counter"
"""An encryption counter read from metadata state (F5)."""

COUNTER_DEC = "counter-decremented"
"""A counter value that went through a subtraction (F5)."""

_PARAM_PREFIX = "@p"


def param_label(index: int) -> str:
    """The placeholder label seeded on parameter ``index``."""
    return f"{_PARAM_PREFIX}{index}"


def is_param_label(label: str) -> bool:
    return label.startswith(_PARAM_PREFIX)


def param_index(label: str) -> int:
    return int(label[len(_PARAM_PREFIX):])


@dataclass(frozen=True)
class SourceSpec:
    """Introduce ``label`` at matching expressions.

    ``kind`` selects the syntactic shape: ``"call"`` matches call results by
    callee name (the last attribute segment), ``"attr"`` matches attribute
    loads by attribute name, ``"name"`` matches bare name loads.  A
    ``"call"`` source is an *override*: the call result carries exactly the
    source label (the blessed resolution APIs launder whatever fed them).
    """

    kind: str
    names: frozenset[str]
    label: str


@dataclass(frozen=True)
class SanitizerSpec:
    """Calls whose results shed ``strips`` labels."""

    names: frozenset[str]
    strips: Taint


@dataclass(frozen=True)
class SinkSpec:
    """A call-shaped sink: taint must not reach the listed arguments.

    ``arg_positions`` index positional arguments (after any receiver),
    ``kwarg_names`` match keyword arguments.  Optional filters narrow the
    match: ``receivers`` restricts to calls whose receiver expression ends
    in one of the given attribute/variable names (``self.nvm.write`` ends in
    ``nvm``); ``keyword_equals`` requires a keyword argument to be a
    ``<base>.<member>`` attribute with the member in the given set (the
    ``domain=MacDomain.NODE`` shape); ``module_prefixes`` restricts the
    sink to call sites inside the given dotted-module prefixes.
    """

    rule: str
    callee_names: frozenset[str]
    arg_positions: tuple[int, ...]
    message: str
    labels: Taint
    kwarg_names: tuple[str, ...] = ()
    receivers: frozenset[str] = frozenset()
    keyword_equals: tuple[str, str, frozenset[str]] | None = None
    module_prefixes: tuple[str, ...] = ()


@dataclass(frozen=True)
class StoreSinkSpec:
    """An assignment-shaped sink: taint must not be stored into the named
    attributes (``obj.sets = x``) or their elements at any depth
    (``obj.sets[i][address] = x``), directly or through a local bound to
    one (``lane = obj.sets[i]; lane[address] = x``).
    """

    rule: str
    attr_names: frozenset[str]
    message: str
    labels: Taint


@dataclass(frozen=True)
class FlowConfig:
    """Everything the engine needs to know, merged over the active rules."""

    sources: tuple[SourceSpec, ...] = ()
    sanitizers: tuple[SanitizerSpec, ...] = ()
    sinks: tuple[SinkSpec, ...] = ()
    store_sinks: tuple[StoreSinkSpec, ...] = ()

    def call_sources(self) -> dict[str, str]:
        table: dict[str, str] = {}
        for spec in self.sources:
            if spec.kind == "call":
                for name in spec.names:
                    table[name] = spec.label
        return table

    def attr_sources(self) -> dict[str, str]:
        table: dict[str, str] = {}
        for spec in self.sources:
            if spec.kind == "attr":
                for name in spec.names:
                    table[name] = spec.label
        return table

    def name_sources(self) -> dict[str, str]:
        table: dict[str, str] = {}
        for spec in self.sources:
            if spec.kind == "name":
                for name in spec.names:
                    table[name] = spec.label
        return table

    def sanitizer_table(self) -> dict[str, Taint]:
        table: dict[str, Taint] = {}
        for spec in self.sanitizers:
            for name in spec.names:
                table[name] = table.get(name, EMPTY) | spec.strips
        return table

    def sinks_by_name(self) -> dict[str, tuple[SinkSpec, ...]]:
        table: dict[str, list[SinkSpec]] = {}
        for spec in self.sinks:
            for name in spec.callee_names:
                table.setdefault(name, []).append(spec)
        return {name: tuple(specs) for name, specs in table.items()}


def merge_configs(configs: "list[FlowConfig]") -> FlowConfig:
    """Union the per-rule configurations into one engine configuration."""
    return FlowConfig(
        sources=tuple(s for c in configs for s in c.sources),
        sanitizers=tuple(s for c in configs for s in c.sanitizers),
        sinks=tuple(s for c in configs for s in c.sinks),
        store_sinks=tuple(s for c in configs for s in c.store_sinks),
    )
