"""The contract registry the SIM3xx rules enforce.

Everything project-specific about the contract analysis lives here:
which stats classes pair with which cache models (SIM301), where the
metric tables and wire tables are declared (SIM302/SIM303), which
receiver names carry wire payloads, where the env-var and version
constants live (SIM304/SIM305).  The rules in the sibling modules are
generic over this table, so adding a new model, metric namespace or
versioned protocol is a spec edit, not a rule edit.

Waivers are part of the contract: a live counter listed in a model's
``waived_live`` set is *statically* reachable from that model but
*dynamically* dead under every configuration the replay kernels
accept, so its absence from the replay constructor is not drift.
Every waiver must say why.
"""

from __future__ import annotations

# --- SIM301: live <-> replay stats-footprint parity -------------------

#: The shared set-associative core can bypass an access (no evictable
#: candidate / explicit policy bypass), so ``CacheStats.bypasses`` is
#: statically reachable from every cache built on it.  But the tile,
#: primitive-list and L2 configurations never produce a bypass — only
#: the OPT-number policy's write path does, and that policy accounts
#: through ``AttributeCacheStats.write_bypasses`` instead — so the
#: replay kernels rightly never reconstruct it.
_BYPASS_WAIVER = {
    "bypasses": "only the OPT-number attribute policy bypasses; this "
                "model's configurations never take that path",
}

#: model name -> contract.  ``live_modules`` are the entry points whose
#: reachable closure defines the live footprint; ``stats_cls`` is the
#: stats class whose fields the model writes; ``waived_live`` are live
#: fields the replay constructor is excused from (reason attached).
STATS_MODELS = {
    "tile": {
        "stats_cls": "CacheStats",
        "live_modules": ("repro.tcor.baseline_tile_cache",),
        "waived_live": _BYPASS_WAIVER,
    },
    "primitive_list": {
        "stats_cls": "CacheStats",
        "live_modules": ("repro.tcor.primitive_list_cache",),
        "waived_live": _BYPASS_WAIVER,
    },
    "attribute": {
        "stats_cls": "AttributeCacheStats",
        "live_modules": ("repro.tcor.attribute_cache",),
        "waived_live": {},
    },
    "l2": {
        "stats_cls": "CacheStats",
        "live_modules": ("repro.tcor.l2_policy", "repro.caches.hierarchy"),
        "waived_live": _BYPASS_WAIVER,
    },
    "dram": {
        "stats_cls": "MemoryCounters",
        "live_modules": ("repro.caches.hierarchy",),
        "waived_live": {},
    },
    "re": {
        "stats_cls": "REStats",
        "live_modules": ("repro.anim.elimination",),
        "waived_live": {},
    },
}

#: The module holding the replay kernels whose constructor calls are
#: the replay side of the footprint.
REPLAY_MODULE = "repro.replay.kernels"

#: (top-level function in REPLAY_MODULE, stats class) -> model name.
#: A stats-class constructor call in the replay module that this table
#: does not map is itself a SIM301 finding: an unaccounted kernel.
REPLAY_SITES = {
    ("replay_baseline", "CacheStats"): "tile",
    ("replay_tcor", "CacheStats"): "primitive_list",
    ("replay_tcor", "AttributeCacheStats"): "attribute",
    ("_l2_engine", "CacheStats"): "l2",
    ("_l2_engine", "MemoryCounters"): "dram",
    ("_finalize_re", "REStats"): "re",
}

#: Container-mutating method names: a call ``self.<field>.<method>``
#: inside the stats class counts as a write of ``<field>``.
CONTAINER_MUTATORS = ("setdefault", "append", "add", "update",
                      "insert", "extend")

# --- SIM302: metric-name discipline -----------------------------------

#: Where the pre-registered name tables live.
METRICS_MODULE = "repro.serve.metrics"

#: metrics class -> its namespace prefix and the module-level tables
#: declaring its counter/gauge names.  Subclasses inherit membership.
METRIC_NAMESPACES = {
    "ServeMetrics": {
        "prefix": "serve",
        "counters": "COUNTERS",
        "gauges": "GAUGES",
    },
    "ClusterMetrics": {
        "prefix": "serve.cluster",
        "counters": "CLUSTER_COUNTERS",
        "gauges": "CLUSTER_GAUGES",
    },
}

#: Histogram names each namespace registers alongside its tables.
HISTOGRAM_NAMES = ("batch_size", "latency_s")

#: Per-shard forwarding counters are minted dynamically (one per
#: backend name); absolute literals matching these prefixes are
#: legitimate even though no table lists them.
DYNAMIC_METRIC_PREFIXES = ("serve.cluster.shard.",)

#: Absolute metric names must live in one of these namespaces.
ABSOLUTE_PREFIXES = ("live.", "sim.", "serve.", "anim.", "re.")

#: Modules whose metric literals SIM302 checks.
METRIC_MODULE_PREFIXES = ("repro.serve", "repro.obs", "repro.replay",
                          "repro.anim")

#: Receivers of these classes take absolute names; the ``serve.*``
#: subset must be pre-registered.
REGISTRY_CLASSES = ("MetricsRegistry",)

# --- SIM303: wire-schema contract -------------------------------------

WIRE_SCHEMA_MODULE = "repro.serve.schema"
WIRE_FIELDS_TABLE = "WIRE_FIELDS"
WIRE_VERSION_CONST = "SCHEMA_VERSION"
WIRE_SPAN_CONST = "VERSION_COMPAT_SPAN"

#: module -> local receiver names that hold wire payloads there.  A
#: constant string key read/written through one of these receivers must
#: be declared by some schema version within the compat span.
WIRE_READERS = {
    "repro.serve.server": ("payload", "response", "body", "health",
                           "error", "data"),
    "repro.serve.client": ("payload", "response", "error", "data"),
    "repro.serve.cluster": ("payload", "response", "error", "record",
                            "entry", "spec", "body", "data"),
    "repro.serve.lifecycle": ("payload", "record"),
    "repro.serve.schema": ("payload", "data"),
}

#: Modules that originate requests ("op"-keyed dict literals) and the
#: modules whose ``op == "..."`` comparisons constitute handling.
OP_SENDERS = ("repro.serve.client", "repro.serve.cluster")
OP_HANDLERS = ("repro.serve.server",)

# --- SIM304: env-var discipline ---------------------------------------

#: The one module allowed to spell ``REPRO_*`` literals; everything
#: else must read the constants it exports.
ENVVARS_MODULE = "repro.envvars"

# --- SIM305: version-constant discipline ------------------------------

#: version constant -> its home module and the helper functions that
#: may compare it.  Comparing one of these constants anywhere else —
#: or comparing a wire version *field* against a raw int literal —
#: bypasses the negotiated compat span.
VERSION_CONSTANTS = {
    "SCHEMA_VERSION": {
        "module": "repro.serve.schema",
        "helpers": ("versions_compatible",),
    },
    "TRACE_IR_VERSION": {
        "module": "repro.replay.ir",
        "helpers": ("trace_ir_compatible",),
    },
    # The facts format has no compat span at all: the semantic cache is
    # invalidated wholesale by rules_signature(), so nothing anywhere
    # may branch on FACTS_VERSION.
    "FACTS_VERSION": {
        "module": "repro.lint.semantic.model",
        "helpers": (),
    },
}

#: Modules where a dict field named ``v``/``version``/``schema_version``
#: is a protocol version, so comparing it to a raw int is a finding.
#: (Elsewhere those key names may mean something unrelated.)
VERSIONED_MODULE_PREFIXES = ("repro.serve", "repro.replay",
                             "repro.parallel", "repro.lint")


def module_matches(module: str, prefixes) -> bool:
    """True when ``module`` is one of ``prefixes`` or nested under one."""
    return any(module == p or module.startswith(p + ".") for p in prefixes)
