//! The probe registry: every counter, histogram, gauge, and span name
//! the workspace emits through [`crate`] (`mec-obs`), with its value
//! shape and a one-line description.
//!
//! Probe names are stringly typed at the emit site — `counter_add`,
//! `record`, `span`, and friends all take `&str` — which makes a typo'd
//! or renamed-on-one-side-only probe a silent data loss: the writer
//! emits under one name, the dashboard or `obsreport` reader aggregates
//! under another, and nothing fails. This registry closes the loop. It
//! is the single source of truth for which names exist, and the
//! `probes` rule in `cargo xtask analyze` checks every *literal* probe
//! name at every emit site in the workspace against it, so an
//! unregistered name fails the build instead of vanishing from the
//! report. The rule also checks that each call matches the probe's
//! [`ProbeKind`], and it rejects a name computed at runtime outside this
//! crate: every emitted name is a literal it can check.
//!
//! A per-instance breakdown (one publish histogram per shard) is one
//! registered probe recorded with a label ([`crate::record_labelled`]),
//! not one name per instance; its help text names the label.
//!
//! Naming convention: `<subsystem>.<event>[.<qualifier>]`, lowercase,
//! dot-separated; duration histograms carry a unit suffix (`.ns`,
//! `_us`). Keep the list sorted by name.
//!
//! When adding a probe: pick the name, emit it, register it here with a
//! description, and regenerate `docs/METRICS.md` with
//! `cargo xtask metrics-doc` — `cargo xtask analyze` and the
//! `metrics_doc` sync test hold you to both halves.

/// The value shape a probe emits under, which determines how readers
/// (`obsreport`, the `/metrics` endpoint) aggregate and render it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// Monotonic cumulative count (`counter_add`).
    Counter,
    /// Value distribution (`record` / `record_many` /
    /// `record_labelled`), folded into a log-bucketed histogram.
    Histogram,
    /// Timed section (`span` / `obs_span!`); durations land in a
    /// nanosecond histogram, so readers treat it like [`Self::Histogram`].
    Span,
    /// Sampled instantaneous value (`gauge`), a time series.
    Gauge,
}

impl ProbeKind {
    /// Lowercase label used in the generated catalog and by the
    /// Prometheus renderer's `# TYPE` mapping.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProbeKind::Counter => "counter",
            ProbeKind::Histogram => "histogram",
            ProbeKind::Span => "span",
            ProbeKind::Gauge => "gauge",
        }
    }
}

/// One registered probe: its wire name, value shape, and description.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Dot-separated wire name, e.g. `serve.publish.ns`.
    pub name: &'static str,
    /// How the value stream is shaped (counter / histogram / span / gauge).
    pub kind: ProbeKind,
    /// One-line human description, rendered into `docs/METRICS.md` and
    /// the `/metrics` `# HELP` lines.
    pub help: &'static str,
}

/// Every probe the workspace may emit, sorted lexicographically by name.
pub const REGISTRY: &[Probe] = &[
    // approximation pipeline (crates/core appro solver)
    Probe {
        name: "appro.gap_solve",
        kind: ProbeKind::Span,
        help: "Time spent in the GAP LP-solve stage of one Appro run.",
    },
    Probe {
        name: "appro.merge",
        kind: ProbeKind::Span,
        help: "Time spent merging per-cloudlet partial assignments.",
    },
    Probe {
        name: "appro.polish",
        kind: ProbeKind::Span,
        help: "Time spent in the post-rounding local-improvement polish.",
    },
    Probe {
        name: "appro.pricing",
        kind: ProbeKind::Span,
        help: "Time spent computing marginal cache prices.",
    },
    Probe {
        name: "appro.repair",
        kind: ProbeKind::Span,
        help: "Time spent repairing capacity violations after rounding.",
    },
    Probe {
        name: "appro.runs",
        kind: ProbeKind::Counter,
        help: "Completed Appro solver invocations.",
    },
    Probe {
        name: "appro.split",
        kind: ProbeKind::Span,
        help: "Time spent splitting the market into per-cloudlet subproblems.",
    },
    Probe {
        name: "appro.total",
        kind: ProbeKind::Span,
        help: "End-to-end wall time of one Appro solver run.",
    },
    Probe {
        name: "appro.virtual_slots",
        kind: ProbeKind::Counter,
        help: "Virtual capacity slots created across all Appro runs.",
    },
    // market dynamics and local search (crates/core)
    Probe {
        name: "core.dynamics.moves_applied",
        kind: ProbeKind::Counter,
        help: "Best-response moves actually applied by market dynamics.",
    },
    Probe {
        name: "core.dynamics.moves_attempted",
        kind: ProbeKind::Counter,
        help: "Candidate best-response moves evaluated by market dynamics.",
    },
    Probe {
        name: "core.dynamics.potential",
        kind: ProbeKind::Gauge,
        help: "Exact game potential sampled after each dynamics round.",
    },
    Probe {
        name: "core.dynamics.rounds",
        kind: ProbeKind::Counter,
        help: "Best-response rounds run until convergence or cutoff.",
    },
    Probe {
        name: "core.dynamics.run",
        kind: ProbeKind::Span,
        help: "Wall time of one full best-response dynamics run.",
    },
    Probe {
        name: "core.local_search.moves",
        kind: ProbeKind::Counter,
        help: "Improving swaps applied by the local-search refiner.",
    },
    Probe {
        name: "core.local_search.run",
        kind: ProbeKind::Span,
        help: "Wall time of one local-search refinement pass.",
    },
    // GAP rounding (crates/gap)
    Probe {
        name: "gap.flow.relaxed",
        kind: ProbeKind::Counter,
        help: "Arcs relaxed (forward and reverse) plus offers to the sink by the transportation flow's searches.",
    },
    Probe {
        name: "gap.flow.searches",
        kind: ProbeKind::Counter,
        help: "Shortest-path searches of the transportation flow (relaxation and rounding).",
    },
    Probe {
        name: "gap.flow.settled",
        kind: ProbeKind::Counter,
        help: "Nodes settled by the transportation flow's searches (a settled item scans only its arcs up to its cheapest bin with room).",
    },
    Probe {
        name: "gap.lp_relax",
        kind: ProbeKind::Span,
        help: "Time solving the fractional GAP relaxation.",
    },
    Probe {
        name: "gap.round",
        kind: ProbeKind::Span,
        help: "Time rounding the fractional GAP solution to an assignment.",
    },
    Probe {
        name: "gap.rounding_slots",
        kind: ProbeKind::Counter,
        help: "Bipartite rounding-graph slots built across GAP roundings.",
    },
    // serve daemon data plane (crates/serve)
    Probe {
        name: "serve.cache.hit",
        kind: ProbeKind::Counter,
        help: "Queries answered while the provider was cached at a cloudlet.",
    },
    Probe {
        name: "serve.cache.miss",
        kind: ProbeKind::Counter,
        help: "Queries answered while the provider was remote or inactive.",
    },
    Probe {
        name: "serve.drain.batch",
        kind: ProbeKind::Histogram,
        help: "Commands taken per queue-drain batch by a shard writer.",
    },
    Probe {
        name: "serve.drain.depth",
        kind: ProbeKind::Histogram,
        help: "Queue depth observed at the start of each drain batch.",
    },
    Probe {
        name: "serve.epoch",
        kind: ProbeKind::Counter,
        help: "Maintenance epochs (best-response quanta) completed.",
    },
    Probe {
        name: "serve.epoch.moves",
        kind: ProbeKind::Counter,
        help: "Placement moves applied by maintenance epochs in total.",
    },
    Probe {
        name: "serve.join.admitted",
        kind: ProbeKind::Counter,
        help: "Join requests admitted with a cache placement.",
    },
    Probe {
        name: "serve.join.rejected",
        kind: ProbeKind::Counter,
        help: "Join requests refused (no feasible placement).",
    },
    Probe {
        name: "serve.leave",
        kind: ProbeKind::Counter,
        help: "Leave requests applied (provider departed the market).",
    },
    Probe {
        name: "serve.publish.ns",
        kind: ProbeKind::Histogram,
        help: "View publish latency after a write batch, one series per shard (label `shard`).",
    },
    Probe {
        name: "serve.quantum.moves",
        kind: ProbeKind::Histogram,
        help: "Moves applied per preemptible maintenance quantum.",
    },
    Probe {
        name: "serve.queue.depth",
        kind: ProbeKind::Gauge,
        help: "Writer-queue depth sampled at drain time (per shard seq).",
    },
    Probe {
        name: "serve.recache",
        kind: ProbeKind::Counter,
        help: "Maintenance moves that cached or re-homed a provider (demand-driven re-caching).",
    },
    Probe {
        name: "serve.shard.migrate",
        kind: ProbeKind::Counter,
        help: "Cross-shard provider migrations committed.",
    },
    Probe {
        name: "serve.shard.rebalance.moves",
        kind: ProbeKind::Histogram,
        help: "Cross-shard rebalance moves proposed per maintenance pass.",
    },
    Probe {
        name: "serve.shard.route",
        kind: ProbeKind::Counter,
        help: "Write commands routed to a non-resident shard.",
    },
    Probe {
        name: "serve.turn.inline",
        kind: ProbeKind::Counter,
        help: "Command batches an I/O thread applied inline under its queue claim.",
    },
    Probe {
        name: "serve.turn.writer",
        kind: ProbeKind::Counter,
        help: "Command batches applied on a shard's writer thread.",
    },
    Probe {
        name: "serve.update",
        kind: ProbeKind::Counter,
        help: "Update requests applied (demand re-declared).",
    },
    Probe {
        name: "serve.update.evicted",
        kind: ProbeKind::Counter,
        help: "Providers evicted because an update no longer fits.",
    },
    // discrete-event simulator (crates/sim)
    Probe {
        name: "sim.event_loop",
        kind: ProbeKind::Span,
        help: "Wall time of one simulator event-loop run.",
    },
    Probe {
        name: "sim.events",
        kind: ProbeKind::Counter,
        help: "Discrete events processed by the simulator.",
    },
    Probe {
        name: "sim.request_latency_us",
        kind: ProbeKind::Histogram,
        help: "End-to-end simulated request latency (microseconds).",
    },
];

/// `true` if `name` is a registered probe name.
#[must_use]
pub fn is_registered(name: &str) -> bool {
    lookup(name).is_some()
}

/// The registry entry for `name`, if registered.
#[must_use]
pub fn lookup(name: &str) -> Option<&'static Probe> {
    REGISTRY
        .binary_search_by(|p| p.name.cmp(name))
        .ok()
        .map(|i| &REGISTRY[i])
}

/// Renders the registry as the markdown metrics catalog.
///
/// This is the single source of truth behind `docs/METRICS.md`:
/// `cargo xtask metrics-doc` regenerates the file from this function,
/// and the `metrics_doc` sync test fails if the checked-in copy drifts
/// from the registry.
#[must_use]
pub fn catalog_markdown() -> String {
    let mut out = String::new();
    out.push_str("# Metrics catalog\n\n");
    out.push_str(
        "<!-- GENERATED FILE — do not edit. Regenerate with `cargo xtask metrics-doc`. -->\n\n",
    );
    out.push_str(
        "Every probe the workspace can emit through `mec-obs`, generated from\n\
         `mec_obs::probes::REGISTRY` (the authoritative list; `cargo xtask analyze`\n\
         rejects emit sites that use unregistered names). Builds without the\n\
         `mec-obs/enabled` feature compile every probe away to a no-op.\n\n",
    );
    out.push_str(
        "Kinds: **counter** — monotonic cumulative count; **histogram** — value\n\
         distribution (log-bucketed; `.ns`/`_us` suffixes give the unit);\n\
         **span** — timed section, aggregated as a nanosecond histogram;\n\
         **gauge** — sampled instantaneous value.\n\n",
    );
    out.push_str(
        "Readers: `obsreport` folds JSONL traces offline; a daemon started with\n\
         `--admin-port` serves the live cumulative state at `GET /metrics` in\n\
         Prometheus exposition format (see [OPERATIONS.md](../OPERATIONS.md)).\n\n",
    );
    let mut section = "";
    for p in REGISTRY {
        let subsystem = p.name.split('.').next().unwrap_or(p.name);
        if subsystem != section {
            section = subsystem;
            out.push_str(&format!("\n## `{subsystem}.*`\n\n"));
            out.push_str("| probe | kind | description |\n|---|---|---|\n");
        }
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            p.name,
            p.kind.label(),
            p.help
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in REGISTRY.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "registry out of order at {:?} / {:?}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn lookup_hits_and_misses() {
        assert!(is_registered("serve.epoch"));
        assert!(is_registered("appro.total"));
        assert!(!is_registered("serve.epochs"));
        assert!(!is_registered(""));
        assert_eq!(lookup("serve.epoch").unwrap().kind, ProbeKind::Counter);
        assert_eq!(
            lookup("serve.publish.ns").unwrap().kind,
            ProbeKind::Histogram
        );
        assert!(lookup("nope").is_none());
    }

    #[test]
    fn every_probe_has_help() {
        for p in REGISTRY {
            assert!(
                !p.help.trim().is_empty() && p.help.ends_with('.'),
                "probe {} needs a one-line description ending in a period",
                p.name
            );
        }
    }

    #[test]
    fn catalog_covers_every_probe() {
        let doc = catalog_markdown();
        for p in REGISTRY {
            assert!(
                doc.contains(&format!("| `{}` |", p.name)),
                "catalog missing {}",
                p.name
            );
        }
        assert!(doc.contains("# Metrics catalog"));
        assert!(doc.contains("GENERATED FILE"));
    }
}
