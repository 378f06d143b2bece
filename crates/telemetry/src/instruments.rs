//! The one instrument-set declaration: [`instrument_set!`](crate::instrument_set).

/// What kind of instrument a [`CatalogueRow`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrumentKind {
    /// A monotonically increasing [`Counter`](crate::Counter).
    Counter,
    /// A [`Gauge`](crate::Gauge): an instantaneous level.
    Gauge,
    /// A latency [`Histogram`](crate::Histogram).
    Histogram,
}

/// One row of an instrument set's `CATALOGUE`: a series the set exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogueRow {
    /// The metric-name constant from [`consts`](crate::consts).
    pub metric: &'static str,
    /// The labels fixed by the declaration; `register` appends the
    /// caller's runtime labels (`vm`, `store`, `device`, `node`).
    pub labels: &'static [(&'static str, &'static str)],
    /// Counter, gauge or histogram.
    pub kind: InstrumentKind,
    /// What the instrument counts or measures.
    pub doc: &'static str,
}

/// Declares a layer's instruments once.
///
/// ```
/// use fluidmem_telemetry::{instrument_set, Registry};
///
/// instrument_set! {
///     /// A cache's live instruments.
///     pub struct CacheInstruments {
///         counters {
///             hits: MONITOR_EVENTS[LABEL_EVENT = "hit"], "Lookups served.";
///         }
///         gauges {
///             resident: LRU_RESIDENT_PAGES[], "Entries held.";
///         }
///     }
///     /// A snapshot of the cache's counters.
///     pub struct CacheStats;
/// }
///
/// let cache = CacheInstruments::default();
/// let registry = Registry::new();
/// cache.register(&registry, &[("vm", "a")]);
/// cache.hits.inc();
/// assert_eq!(cache.snapshot(), CacheStats { hits: 1 });
/// assert_eq!(CacheInstruments::CATALOGUE.len(), 2);
/// ```
///
/// Each field names one or more series, `METRIC[LABEL = "value", …]`
/// joined by `also` (metric and label names are [`consts`](crate::consts)
/// items), then its doc. The `counters`, `gauges` and `histograms`
/// groups are each optional, in that order. Generated:
///
/// * the live-handle struct (`Debug + Clone + Default`, one `pub`
///   handle per field);
/// * `register(&Registry, extra_labels)`, adopting every handle under
///   each of its series with `extra_labels` appended — accumulated
///   values carry over, and the registry sorts labels, so order is free;
/// * `CATALOGUE`, one [`CatalogueRow`] per series;
/// * if a second struct is named: that plain `Copy + Default + Eq`
///   snapshot of the counters in declaration order (gauges are levels —
///   read the live handle; histograms have their own `snapshot`), with
///   `snapshot()` on the handle struct, `AddAssign`, and
///   `since(&baseline)`.
///
/// The `snapshot` form declares only a plain struct of `u64` counters
/// and gauges, for signals assembled from several sources; its `since`
/// subtracts the counters and carries the gauges.
#[macro_export]
macro_rules! instrument_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Set:ident {
            $(counters { $(
                $c:ident: $($cm:ident [$($ck:ident = $cv:literal),*])also+, $cdoc:literal;
            )* })?
            $(gauges { $(
                $g:ident: $($gm:ident [$($gk:ident = $gv:literal),*])also+, $gdoc:literal;
            )* })?
            $(histograms { $(
                $h:ident: $($hm:ident [$($hk:ident = $hv:literal),*])also+, $hdoc:literal;
            )* })?
        }
        $($(#[$smeta:meta])* $svis:vis struct $Stats:ident;)?
    ) => {
        $crate::instrument_set!(
            @set [$(#[$meta])* $vis struct $Set]
            $($((Counter adopt_counter $c [$($cm [$(($ck, $cv))*])+] $cdoc))*)?
            $($((Gauge adopt_gauge $g [$($gm [$(($gk, $gv))*])+] $gdoc))*)?
            $($((Histogram adopt_histogram $h [$($hm [$(($hk, $hv))*])+] $hdoc))*)?
        );
        $crate::instrument_set!(
            @stats [$($(#[$smeta])* $svis struct $Stats)?] $Set [$($($c $cdoc)*)?]
        );
    };

    (
        @set [$(#[$meta:meta])* $vis:vis struct $Set:ident]
        $((
            $Kind:ident $adopt:ident $f:ident
            [$($m:ident [$(($k:ident, $v:literal))*])+] $doc:literal
        ))*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default)]
        $vis struct $Set {
            $(#[doc = $doc] pub $f: $crate::$Kind,)*
        }

        impl $Set {
            /// Every series this set exports: metric, fixed labels,
            /// kind and doc.
            pub const CATALOGUE: &'static [$crate::CatalogueRow] = &[$($(
                $crate::CatalogueRow {
                    metric: $crate::consts::$m,
                    labels: &[$(($crate::consts::$k, $v)),*],
                    kind: $crate::InstrumentKind::$Kind,
                    doc: $doc,
                },
            )+)*];

            /// Registers every live handle in `registry` under its
            /// declared series, with `extra_labels` appended to the
            /// fixed ones. Accumulated values carry over: the registry
            /// adopts the handles, replacing any identically keyed entry.
            pub fn register(&self, registry: &$crate::Registry, extra_labels: &[(&str, &str)]) {
                $($(registry.$adopt(
                    $crate::consts::$m,
                    [$(($crate::consts::$k, $v)),*].iter().chain(extra_labels),
                    &self.$f,
                );)+)*
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis snapshot $Stats:ident {
            counters { $($c:ident: $cdoc:literal;)* }
            gauges { $($g:ident: $gdoc:literal;)* }
        }
    ) => {
        $crate::instrument_set!(
            @snapshot [$(#[$meta])* $vis struct $Stats] [$($c $cdoc)*] [$($g $gdoc)*]
        );
    };

    (@stats [] $Set:ident [$($c:ident $cdoc:literal)*]) => {};
    (@stats [$(#[$meta:meta])* $vis:vis struct $Stats:ident] $Set:ident [$($c:ident $cdoc:literal)*]) => {
        $crate::instrument_set!(
            @snapshot [$(#[$meta])* $vis struct $Stats] [$($c $cdoc)*] []
        );

        impl $Set {
            /// A point-in-time snapshot of every counter.
            pub(crate) fn snapshot(&self) -> $Stats {
                $Stats { $($c: self.$c.get(),)* }
            }
        }
    };

    (
        @snapshot [$(#[$meta:meta])* $vis:vis struct $Stats:ident]
        [$($c:ident $cdoc:literal)*] [$($g:ident $gdoc:literal)*]
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $Stats {
            $(#[doc = $cdoc] pub $c: u64,)*
            $(#[doc = $gdoc] pub $g: u64,)*
        }

        /// Field-wise sum, for totals over several sources.
        impl ::std::ops::AddAssign for $Stats {
            fn add_assign(&mut self, rhs: $Stats) {
                $(self.$c += rhs.$c;)*
                $(self.$g += rhs.$g;)*
            }
        }

        impl $Stats {
            /// The window since `baseline`: counters are subtracted
            /// (saturating), gauges carry their current value.
            pub(crate) fn since(&self, baseline: &$Stats) -> $Stats {
                $Stats {
                    $($c: self.$c.saturating_sub(baseline.$c),)*
                    $($g: self.$g,)*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{consts, InstrumentKind, Registry};
    use fluidmem_sim::SimDuration;

    instrument_set! {
        /// A small set with every kind, one aliased counter.
        struct Mixed {
            counters {
                reads: BLOCK_OPS[LABEL_OP = "read"], "Reads.";
                writes: BLOCK_OPS[LABEL_OP = "write"] also PREFETCH_ISSUED[], "Writes.";
            }
            gauges {
                depth: INFLIGHT_PARKED_OPS[], "Queue depth.";
            }
            histograms {
                latency: STORE_OP_LATENCY_US[LABEL_OP = "get", LABEL_KIND = "demand"], "Latency.";
            }
        }
        /// Its counters.
        struct MixedStats;
    }

    instrument_set! {
        /// Signals with both kinds.
        snapshot Signals {
            counters {
                faults: "Faults.";
                hits: "Hits.";
            }
            gauges {
                resident: "Resident pages.";
            }
        }
    }

    fn loaded() -> Mixed {
        let m = Mixed::default();
        m.reads.add(1);
        m.writes.add(2);
        m.depth.set(3);
        m.latency.observe(SimDuration::from_micros(4));
        m
    }

    #[test]
    fn snapshot_add_assign_and_since_cover_every_field() {
        let m = loaded();
        let a = m.snapshot();
        assert_eq!(
            a,
            MixedStats {
                reads: 1,
                writes: 2
            }
        );
        assert_eq!(Mixed::default().snapshot(), MixedStats::default());
        let mut sum = a;
        sum += MixedStats {
            reads: 10,
            writes: 20,
        };
        assert_eq!(
            sum,
            MixedStats {
                reads: 11,
                writes: 22
            }
        );
        assert_eq!(
            sum.since(&a),
            MixedStats {
                reads: 10,
                writes: 20
            }
        );
        assert_eq!(a.since(&sum), MixedStats::default(), "saturates at zero");
    }

    #[test]
    fn since_subtracts_counters_and_carries_gauges() {
        let base = Signals {
            faults: 5,
            hits: 80,
            resident: 32,
        };
        let now = Signals {
            faults: 9,
            hits: 110,
            resident: 48,
        };
        assert_eq!(
            now.since(&base),
            Signals {
                faults: 4,
                hits: 30,
                resident: 48
            }
        );
        let mut sum = base;
        sum += now;
        assert_eq!(
            sum,
            Signals {
                faults: 14,
                hits: 190,
                resident: 80
            }
        );
    }

    /// Registered series are the set's own handles — values recorded
    /// before registration show, later ones flow both ways — under every
    /// declared series, with and without runtime labels.
    #[test]
    fn registered_series_are_the_live_handles() {
        for extra in [&[][..], &[(consts::LABEL_VM, "a")][..]] {
            let m = loaded();
            let reg = Registry::new();
            m.register(&reg, extra);
            let with = |fixed: &[(&'static str, &'static str)]| [fixed, extra].concat();

            let reads = reg.counter(consts::BLOCK_OPS, &with(&[(consts::LABEL_OP, "read")]));
            let writes = reg.counter(consts::BLOCK_OPS, &with(&[(consts::LABEL_OP, "write")]));
            let alias = reg.counter(consts::PREFETCH_ISSUED, &with(&[]));
            let depth = reg.gauge(consts::INFLIGHT_PARKED_OPS, &with(&[]));
            let latency = reg.histogram(
                consts::STORE_OP_LATENCY_US,
                &with(&[(consts::LABEL_KIND, "demand"), (consts::LABEL_OP, "get")]),
            );
            assert_eq!(
                (reads.get(), writes.get(), alias.get(), depth.get()),
                (1, 2, 2, 3)
            );
            assert_eq!(latency.snapshot().count, 1);

            m.reads.inc();
            alias.inc();
            depth.add(1);
            latency.observe(SimDuration::from_micros(1));
            assert_eq!((reads.get(), m.writes.get(), m.depth.get()), (2, 3, 4));
            assert_eq!(m.latency.snapshot().count, 2);

            let snap = reg.snapshot();
            assert_eq!(
                (
                    snap.counters.len(),
                    snap.gauges.len(),
                    snap.histograms.len()
                ),
                (3, 1, 1),
                "nothing but the declared series"
            );
        }
    }

    #[test]
    fn catalogue_lists_every_series() {
        let rows: Vec<_> = Mixed::CATALOGUE
            .iter()
            .map(|r| (r.metric, r.labels.len(), r.kind, r.doc))
            .collect();
        assert_eq!(
            rows,
            [
                (consts::BLOCK_OPS, 1, InstrumentKind::Counter, "Reads."),
                (consts::BLOCK_OPS, 1, InstrumentKind::Counter, "Writes."),
                (
                    consts::PREFETCH_ISSUED,
                    0,
                    InstrumentKind::Counter,
                    "Writes."
                ),
                (
                    consts::INFLIGHT_PARKED_OPS,
                    0,
                    InstrumentKind::Gauge,
                    "Queue depth."
                ),
                (
                    consts::STORE_OP_LATENCY_US,
                    2,
                    InstrumentKind::Histogram,
                    "Latency."
                ),
            ]
        );
    }
}
