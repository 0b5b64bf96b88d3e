//! Declarative experiment specification: what to run, as data.
//!
//! A [`JobSpec`] is one simulation point — a trace source on a machine
//! shape under a [`SecurityMode`] — and a [`SweepSpec`] is an ordered
//! list of them, typically produced by [`SweepSpec::grid`] instead of
//! the nested `for` loops the figure binaries used to hand-roll.
//!
//! Every field that influences the simulation result is part of the
//! spec, which is what makes the content-addressed cache sound: the
//! cache key ([`JobSpec::cache_key`]) is a SHA-256 over the canonical
//! rendering of the *materialized* configuration (every architectural
//! parameter, not just the grid coordinates), so a change to the E6000
//! defaults or to the security layer's knobs invalidates exactly the
//! affected entries.

use senss::secure_bus::{CipherMode, SenssConfig, SenssExtension};
use senss_backends::{
    ScatteredConfig, ScatteredExtension, SealerConfig, SealerExtension, ServasConfig,
    ServasExtension,
};
use senss_crypto::sha256::Sha256;
use senss_memprot::{MemProtConfig, MemProtPolicy};
use senss_sim::config::CoherenceProtocol;
use senss_sim::trace::VecTrace;
use senss_sim::{NullExtension, Stats, System, SystemConfig};
use senss_trace::TraceSink;
use senss_workloads::{micro, Workload};

/// Bumped whenever the meaning of cached results changes (simulator
/// semantics, stats layout, canonical-form layout). Part of every cache
/// key, so a bump invalidates the whole cache at once.
///
/// The snapshot format version ([`senss_snapshot::FORMAT_VERSION`]) is
/// folded in alongside: warm-started sweep points are produced by
/// forking checkpoints, so a change to checkpoint semantics must
/// invalidate cached results exactly like a simulator change would.
pub const CACHE_FORMAT: u32 = 2;

/// Which security stack the job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityMode {
    /// The insecure baseline (no SENSS extension).
    Baseline,
    /// SENSS bus security only (§4).
    Senss {
        /// Encryption mask count (`usize::MAX` = the paper's "Perfect").
        masks: usize,
        /// Cache-to-cache transfers between authentication rounds.
        auth_interval: u64,
        /// Encryption/authentication algorithm pair.
        cipher: CipherMode,
    },
    /// SENSS plus the §6 cache-to-memory protection stack (Figure 10).
    Integrated {
        /// Encryption mask count.
        masks: usize,
        /// Cache-to-cache transfers between authentication rounds.
        auth_interval: u64,
        /// Encryption/authentication algorithm pair.
        cipher: CipherMode,
    },
    /// SERVAS-style authenticryption (`senss-backends`): one fused
    /// encrypt+authenticate pass per transfer, no separate
    /// authentication traffic.
    Servas {
        /// Fused-pass buffer count (the mask-count analogue).
        masks: usize,
    },
    /// Sealer in-SRAM AES (`senss-backends`): the SENSS datapath on a
    /// ~2-cycle in-array crypto pipeline.
    Sealer {
        /// Cache-to-cache transfers between authentication rounds.
        auth_interval: u64,
    },
    /// Secret-sharing scattered memory (`senss-backends`): lines split
    /// into XOR shares, MAC verification replaced by reconstruction.
    Scattered {
        /// Shares per memory line.
        shares: u32,
    },
}

impl SecurityMode {
    /// SENSS with the paper's defaults (8 masks, interval 100, CBC).
    pub fn senss() -> SecurityMode {
        let d = SenssConfig::paper_default(1);
        SecurityMode::Senss {
            masks: d.num_masks,
            auth_interval: d.auth_interval,
            cipher: d.cipher,
        }
    }

    /// SENSS with a specific mask count, other knobs at paper defaults.
    pub fn senss_masks(masks: usize) -> SecurityMode {
        match SecurityMode::senss() {
            SecurityMode::Senss {
                auth_interval,
                cipher,
                ..
            } => SecurityMode::Senss {
                masks,
                auth_interval,
                cipher,
            },
            _ => unreachable!(),
        }
    }

    /// SENSS with a specific auth interval, other knobs at paper defaults.
    pub fn senss_interval(auth_interval: u64) -> SecurityMode {
        match SecurityMode::senss() {
            SecurityMode::Senss { masks, cipher, .. } => SecurityMode::Senss {
                masks,
                auth_interval,
                cipher,
            },
            _ => unreachable!(),
        }
    }

    /// The integrated stack (Figure 10) with paper-default bus security.
    pub fn integrated() -> SecurityMode {
        match SecurityMode::senss() {
            SecurityMode::Senss {
                masks,
                auth_interval,
                cipher,
            } => SecurityMode::Integrated {
                masks,
                auth_interval,
                cipher,
            },
            _ => unreachable!(),
        }
    }

    /// SERVAS authenticryption with the reference 8 fused-pass buffers.
    pub fn servas() -> SecurityMode {
        SecurityMode::Servas {
            masks: ServasConfig::paper_default(1).num_masks,
        }
    }

    /// Sealer in-SRAM AES with the reference interval-100
    /// authentication.
    pub fn sealer() -> SecurityMode {
        SecurityMode::Sealer {
            auth_interval: SealerConfig::paper_default(1).auth_interval,
        }
    }

    /// Secret-sharing scattered memory with the reference 3 shares.
    pub fn scattered() -> SecurityMode {
        SecurityMode::Scattered {
            shares: ScatteredConfig::paper_default(1).shares,
        }
    }

    /// Canonical tag used in cache keys and run records.
    pub fn tag(&self) -> String {
        fn cipher_tag(c: CipherMode) -> &'static str {
            match c {
                CipherMode::CbcTwoPass => "cbc",
                CipherMode::GcmSinglePass => "gcm",
            }
        }
        match self {
            SecurityMode::Baseline => "baseline".to_string(),
            SecurityMode::Senss {
                masks,
                auth_interval,
                cipher,
            } => format!("senss:m{masks}:i{auth_interval}:{}", cipher_tag(*cipher)),
            SecurityMode::Integrated {
                masks,
                auth_interval,
                cipher,
            } => format!(
                "integrated:m{masks}:i{auth_interval}:{}",
                cipher_tag(*cipher)
            ),
            SecurityMode::Servas { masks } => format!("servas:m{masks}"),
            SecurityMode::Sealer { auth_interval } => format!("sealer:i{auth_interval}"),
            SecurityMode::Scattered { shares } => format!("scattered:n{shares}"),
        }
    }

    /// Parses a [`tag`](SecurityMode::tag) back into a mode — the wire
    /// format `senss-serve` uses to submit jobs over the network.
    pub fn from_tag(tag: &str) -> Option<SecurityMode> {
        if tag == "baseline" {
            return Some(SecurityMode::Baseline);
        }
        let (family, rest) = tag.split_once(':')?;
        match family {
            // The single-knob backend families: one `<letter><value>`
            // parameter, nothing else.
            "servas" => Some(SecurityMode::Servas {
                masks: rest.strip_prefix('m')?.parse().ok()?,
            }),
            "sealer" => Some(SecurityMode::Sealer {
                auth_interval: rest.strip_prefix('i')?.parse().ok()?,
            }),
            "scattered" => Some(SecurityMode::Scattered {
                shares: rest.strip_prefix('n')?.parse().ok()?,
            }),
            "senss" | "integrated" => {
                let mut parts = rest.split(':');
                let masks = parts.next()?.strip_prefix('m')?.parse().ok()?;
                let auth_interval = parts.next()?.strip_prefix('i')?.parse().ok()?;
                let cipher = match parts.next()? {
                    "cbc" => CipherMode::CbcTwoPass,
                    "gcm" => CipherMode::GcmSinglePass,
                    _ => return None,
                };
                if parts.next().is_some() {
                    return None;
                }
                if family == "senss" {
                    Some(SecurityMode::Senss {
                        masks,
                        auth_interval,
                        cipher,
                    })
                } else {
                    Some(SecurityMode::Integrated {
                        masks,
                        auth_interval,
                        cipher,
                    })
                }
            }
            _ => None,
        }
    }

    /// Relative cost weight of simulating this mode (baseline = 100).
    /// Calibrated coarsely from wall-time ratios: the integrated stack walks
    /// Merkle chains (expensive), scattered memory multiplies fill
    /// traffic, the bus-only modes add a few percent.
    pub fn cost_weight(&self) -> u64 {
        match self {
            SecurityMode::Baseline => 100,
            SecurityMode::Senss { .. } => 104,
            SecurityMode::Integrated { .. } => 145,
            SecurityMode::Servas { .. } => 103,
            SecurityMode::Sealer { .. } => 102,
            SecurityMode::Scattered { .. } => 120,
        }
    }
}

/// The trace source a job simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceSpec {
    /// One of the five paper workloads.
    Workload(Workload),
    /// The §7.8 false-sharing microbenchmark (always 2 cores).
    FalseSharing,
    /// The worst-case mask-pressure ping-pong microbenchmark.
    PingPong,
    /// The zero-sharing private-stream microbenchmark.
    PrivateStream,
}

impl TraceSpec {
    /// Canonical tag used in cache keys and run records.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceSpec::Workload(w) => w.name(),
            TraceSpec::FalseSharing => "micro:false_sharing",
            TraceSpec::PingPong => "micro:ping_pong",
            TraceSpec::PrivateStream => "micro:private_stream",
        }
    }

    /// Parses a [`tag`](TraceSpec::tag) back into a trace spec.
    pub fn from_tag(tag: &str) -> Option<TraceSpec> {
        match tag {
            "micro:false_sharing" => Some(TraceSpec::FalseSharing),
            "micro:ping_pong" => Some(TraceSpec::PingPong),
            "micro:private_stream" => Some(TraceSpec::PrivateStream),
            name => Workload::all()
                .into_iter()
                .find(|w| w.name() == name)
                .map(TraceSpec::Workload),
        }
    }
}

/// Canonical tag of a coherence protocol (used in cache keys, run
/// records and the serve wire format).
pub fn coherence_tag(p: CoherenceProtocol) -> &'static str {
    match p {
        CoherenceProtocol::WriteInvalidate => "invalidate",
        CoherenceProtocol::WriteUpdate => "update",
    }
}

/// Parses a [`coherence_tag`] back into a protocol.
pub fn coherence_from_tag(tag: &str) -> Option<CoherenceProtocol> {
    match tag {
        "invalidate" => Some(CoherenceProtocol::WriteInvalidate),
        "update" => Some(CoherenceProtocol::WriteUpdate),
        _ => None,
    }
}

impl From<Workload> for TraceSpec {
    fn from(w: Workload) -> TraceSpec {
        TraceSpec::Workload(w)
    }
}

/// One experiment point: a fully-specified simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// What trace to drive the cores with.
    pub trace: TraceSpec,
    /// Processor count.
    pub cores: usize,
    /// L2 capacity in bytes.
    pub l2_bytes: usize,
    /// Data coherence protocol.
    pub coherence: CoherenceProtocol,
    /// Security stack.
    pub mode: SecurityMode,
    /// Trace operations per core.
    pub ops_per_core: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl JobSpec {
    /// A baseline job on the E6000 shape; refine with the `with_`
    /// builders.
    pub fn new(trace: impl Into<TraceSpec>, cores: usize, l2_bytes: usize) -> JobSpec {
        JobSpec {
            trace: trace.into(),
            cores,
            l2_bytes,
            coherence: CoherenceProtocol::WriteInvalidate,
            mode: SecurityMode::Baseline,
            ops_per_core: 10_000,
            seed: 42,
        }
    }

    /// Sets the security mode.
    pub fn with_mode(mut self, mode: SecurityMode) -> JobSpec {
        self.mode = mode;
        self
    }

    /// Sets the coherence protocol.
    pub fn with_coherence(mut self, coherence: CoherenceProtocol) -> JobSpec {
        self.coherence = coherence;
        self
    }

    /// Sets the per-core operation count.
    pub fn with_ops(mut self, ops_per_core: usize) -> JobSpec {
        self.ops_per_core = ops_per_core;
        self
    }

    /// Sets the workload seed.
    pub fn with_seed(mut self, seed: u64) -> JobSpec {
        self.seed = seed;
        self
    }

    /// Why this job describes no machine the simulator can build (no
    /// cores, or an L2 that is not a power of two >= 64 KiB), if so.
    /// [`JobSpec::system_config`], [`JobSpec::cache_key`] and every run
    /// panic on such a job.
    pub fn validate(&self) -> Result<(), &'static str> {
        SystemConfig::check_e6000(self.cores, self.l2_bytes)
    }

    /// The materialized architectural configuration.
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig::e6000(self.cores, self.l2_bytes).with_coherence(self.coherence)
    }

    /// Materializes the per-core traces this job simulates. Checkpoint
    /// forking ([`crate::executor`]) swaps a longer trace set into a
    /// captured prefix.
    pub fn traces(&self) -> Vec<VecTrace> {
        match self.trace {
            TraceSpec::Workload(w) => w.generate(self.cores, self.ops_per_core, self.seed),
            TraceSpec::FalseSharing => {
                assert_eq!(
                    self.cores, 2,
                    "the false-sharing micro-trace is a 2-core scenario"
                );
                micro::false_sharing(self.ops_per_core)
            }
            TraceSpec::PingPong => micro::ping_pong(self.cores, self.ops_per_core),
            TraceSpec::PrivateStream => micro::private_stream(self.cores, self.ops_per_core),
        }
    }

    fn senss_config(&self, masks: usize, auth_interval: u64, cipher: CipherMode) -> SenssConfig {
        SenssConfig::paper_default(self.cores)
            .with_masks(masks)
            .with_auth_interval(auth_interval)
            .with_cipher(cipher)
    }

    /// Builds the security extension for this job's mode: the one
    /// mapping from [`SecurityMode`] to an extension. Boxed, so every
    /// mode runs as the one concrete `System<Box<dyn Extension>>` type
    /// that [`run`](JobSpec::run), warm-start forks and snapshot
    /// restores share.
    pub fn build_extension(&self) -> Box<dyn senss_sim::Extension> {
        match self.mode {
            SecurityMode::Baseline => Box::new(NullExtension),
            SecurityMode::Senss {
                masks,
                auth_interval,
                cipher,
            } => Box::new(SenssExtension::new(self.senss_config(
                masks,
                auth_interval,
                cipher,
            ))),
            SecurityMode::Integrated {
                masks,
                auth_interval,
                cipher,
            } => {
                let policy = MemProtPolicy::new(MemProtConfig::paper_default(self.cores));
                Box::new(
                    SenssExtension::new(self.senss_config(masks, auth_interval, cipher))
                        .with_memory_protection(policy),
                )
            }
            SecurityMode::Servas { masks } => Box::new(ServasExtension::new(
                ServasConfig::paper_default(self.cores).with_masks(masks),
            )),
            SecurityMode::Sealer { auth_interval } => Box::new(SealerExtension::new(
                SealerConfig::paper_default(self.cores).with_auth_interval(auth_interval),
            )),
            SecurityMode::Scattered { shares } => Box::new(ScatteredExtension::new(
                ScatteredConfig::paper_default(self.cores).with_shares(shares),
            )),
        }
    }

    /// Builds an untraced, unstarted simulator for this job. Every way
    /// of running a job goes through here (or
    /// [`build_system_with_sink`](JobSpec::build_system_with_sink));
    /// checkpoint-aware callers drive it with [`System::run_until`].
    pub fn build_system(&self) -> System<Box<dyn senss_sim::Extension>> {
        System::new(self.system_config(), self.traces(), self.build_extension())
    }

    /// [`build_system`](JobSpec::build_system) with a live trace sink.
    pub fn build_system_with_sink<S: TraceSink>(
        &self,
        sink: S,
    ) -> System<Box<dyn senss_sim::Extension>, S> {
        System::with_sink(
            self.system_config(),
            self.traces(),
            self.build_extension(),
            sink,
        )
    }

    /// Executes the job synchronously, returning the run's [`Stats`].
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (e.g. a non-power-of-two L2);
    /// the executor isolates such panics per job.
    pub fn run(&self) -> Stats {
        self.build_system().run()
    }

    /// Like [`run`](JobSpec::run), but also returns the number of events
    /// the simulator's main loop dispatched — the denominator `perfbench`
    /// normalizes wall time by.
    pub fn run_counting(&self) -> (Stats, u64) {
        let mut sys = self.build_system();
        let stats = sys.run();
        (stats, sys.events_processed())
    }

    /// Like [`run`](JobSpec::run), but streams every simulator trace
    /// event into `sink` and hands the sink back alongside the stats.
    ///
    /// Tracing never perturbs the simulation: the returned [`Stats`] are
    /// bit-identical to an untraced [`run`](JobSpec::run) of the same
    /// spec.
    pub fn run_with_sink<S: TraceSink>(&self, sink: S) -> (Stats, S) {
        let mut sys = self.build_system_with_sink(sink);
        let stats = sys.run();
        (stats, sys.into_sink())
    }

    /// Canonical rendering of everything that determines the result.
    ///
    /// Includes the materialized [`SystemConfig`] fields — not just the
    /// grid coordinates — so changing the E6000 defaults changes the
    /// keys of every affected job.
    pub fn canonical(&self) -> String {
        let c = self.system_config();
        let coherence = coherence_tag(c.coherence);
        let snap = senss_snapshot::FORMAT_VERSION;
        format!(
            "v{CACHE_FORMAT}.{snap}|trace={}|mode={}|ops={}|seed={}|p={}|l1={}:{}:{}:{}|l2={}:{}:{}:{}|\
             lat={}:{}|bus={}:{}|crypto={}:{}|coh={coherence}",
            self.trace.tag(),
            self.mode.tag(),
            self.ops_per_core,
            self.seed,
            c.num_processors,
            c.l1_size,
            c.l1_ways,
            c.l1_line,
            c.l1_hit_latency,
            c.l2_size,
            c.l2_ways,
            c.l2_line,
            c.l2_hit_latency,
            c.cache_to_cache_latency,
            c.cache_to_memory_latency,
            c.bus_cycle,
            c.bus_width,
            c.aes_latency,
            c.hash_latency,
        )
    }

    /// The content-addressed cache key: hex SHA-256 of [`canonical`].
    ///
    /// [`canonical`]: JobSpec::canonical
    pub fn cache_key(&self) -> String {
        let digest = Sha256::digest(self.canonical().as_bytes());
        let mut out = String::with_capacity(64);
        for b in digest {
            out.push_str(&format!("{b:02x}"));
        }
        out
    }
}

/// An ordered set of jobs to execute as one unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepSpec {
    /// Sweep name: names the run-record file and shows up in logs.
    pub name: String,
    /// The jobs, in result order (the executor preserves this order in
    /// its output no matter which worker finishes first).
    pub jobs: Vec<JobSpec>,
}

impl SweepSpec {
    /// An empty sweep.
    pub fn new(name: &str) -> SweepSpec {
        SweepSpec {
            name: name.to_string(),
            jobs: Vec::new(),
        }
    }

    /// Appends one job.
    pub fn push(&mut self, job: JobSpec) -> &mut SweepSpec {
        self.jobs.push(job);
        self
    }

    /// Appends the full cross product `modes × cores × l2s × workloads`
    /// (outermost to innermost), the grid every figure sweeps some slice
    /// of. Axes with a single value cost nothing to include.
    pub fn grid(
        &mut self,
        workloads: &[Workload],
        cores: &[usize],
        l2s: &[usize],
        modes: &[SecurityMode],
        ops_per_core: usize,
        seed: u64,
    ) -> &mut SweepSpec {
        for &mode in modes {
            for &c in cores {
                for &l2 in l2s {
                    for &w in workloads {
                        self.push(
                            JobSpec::new(w, c, l2)
                                .with_mode(mode)
                                .with_ops(ops_per_core)
                                .with_seed(seed),
                        );
                    }
                }
            }
        }
        self
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the sweep has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_keys_are_stable_and_distinct() {
        let a = JobSpec::new(Workload::Fft, 2, 1 << 20);
        let b = JobSpec::new(Workload::Fft, 2, 1 << 20);
        assert_eq!(a.cache_key(), b.cache_key());
        assert_ne!(
            a.cache_key(),
            a.with_seed(43).cache_key(),
            "seed must be part of the key"
        );
        assert_ne!(
            a.cache_key(),
            a.with_mode(SecurityMode::senss()).cache_key(),
            "mode must be part of the key"
        );
        assert_ne!(
            a.cache_key(),
            JobSpec::new(Workload::Fft, 4, 1 << 20).cache_key(),
            "shape must be part of the key"
        );
        assert_ne!(
            a.cache_key(),
            a.with_coherence(CoherenceProtocol::WriteUpdate).cache_key(),
            "protocol must be part of the key"
        );
    }

    #[test]
    fn canonical_includes_materialized_parameters() {
        let c = JobSpec::new(Workload::Lu, 4, 4 << 20).canonical();
        assert!(c.contains("lat=120:180"), "{c}");
        assert!(c.contains("crypto=80:160"), "{c}");
        assert!(c.contains("mode=baseline"), "{c}");
    }

    #[test]
    fn grid_order_is_deterministic() {
        let mut s1 = SweepSpec::new("g");
        let mut s2 = SweepSpec::new("g");
        let modes = [SecurityMode::Baseline, SecurityMode::senss()];
        for s in [&mut s1, &mut s2] {
            s.grid(&Workload::all(), &[2, 4], &[1 << 20], &modes, 1_000, 1);
        }
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 5 * 2 * 2);
    }

    #[test]
    fn mode_constructors_mirror_paper_defaults() {
        let d = SenssConfig::paper_default(4);
        match SecurityMode::senss() {
            SecurityMode::Senss {
                masks,
                auth_interval,
                cipher,
            } => {
                assert_eq!(masks, d.num_masks);
                assert_eq!(auth_interval, d.auth_interval);
                assert_eq!(cipher, d.cipher);
            }
            _ => panic!("wrong variant"),
        }
        assert!(matches!(
            SecurityMode::integrated(),
            SecurityMode::Integrated { .. }
        ));
        assert_eq!(SecurityMode::senss_interval(1).tag(), "senss:m8:i1:cbc");
        assert_eq!(
            SecurityMode::senss_masks(usize::MAX).tag(),
            format!("senss:m{}:i100:cbc", usize::MAX)
        );
    }

    #[test]
    fn jobs_run_all_modes() {
        for mode in [
            SecurityMode::Baseline,
            SecurityMode::senss(),
            SecurityMode::integrated(),
            SecurityMode::servas(),
            SecurityMode::sealer(),
            SecurityMode::scattered(),
        ] {
            let stats = JobSpec::new(Workload::Lu, 2, 1 << 20)
                .with_mode(mode)
                .with_ops(800)
                .run();
            assert!(stats.total_cycles > 0, "{mode:?}");
        }
    }

    #[test]
    fn backend_modes_have_distinct_cache_keys() {
        // Satellite guarantee: every backend variant perturbs the
        // content-addressed key, so no backend can ever read another's
        // cached result.
        let base = JobSpec::new(Workload::Fft, 4, 1 << 20);
        let modes = [
            SecurityMode::Baseline,
            SecurityMode::senss(),
            SecurityMode::integrated(),
            SecurityMode::servas(),
            SecurityMode::sealer(),
            SecurityMode::scattered(),
        ];
        let keys: Vec<String> = modes
            .iter()
            .map(|m| base.with_mode(*m).cache_key())
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "{:?} vs {:?}", modes[i], modes[j]);
                }
            }
        }
        // The backend knobs themselves are part of the key too.
        assert_ne!(
            base.with_mode(SecurityMode::Servas { masks: 8 })
                .cache_key(),
            base.with_mode(SecurityMode::Servas { masks: 2 })
                .cache_key(),
        );
        assert_ne!(
            base.with_mode(SecurityMode::Scattered { shares: 3 })
                .cache_key(),
            base.with_mode(SecurityMode::Scattered { shares: 5 })
                .cache_key(),
        );
    }

    #[test]
    fn tags_round_trip() {
        for mode in [
            SecurityMode::Baseline,
            SecurityMode::senss(),
            SecurityMode::senss_masks(usize::MAX),
            SecurityMode::senss_interval(1),
            SecurityMode::integrated(),
            SecurityMode::servas(),
            SecurityMode::Servas { masks: 1 },
            SecurityMode::sealer(),
            SecurityMode::Sealer { auth_interval: 7 },
            SecurityMode::scattered(),
            SecurityMode::Scattered { shares: 5 },
        ] {
            assert_eq!(SecurityMode::from_tag(&mode.tag()), Some(mode));
        }
        assert_eq!(SecurityMode::servas().tag(), "servas:m8");
        assert_eq!(SecurityMode::sealer().tag(), "sealer:i100");
        assert_eq!(SecurityMode::scattered().tag(), "scattered:n3");
        for trace in [
            TraceSpec::Workload(Workload::Fft),
            TraceSpec::Workload(Workload::Ocean),
            TraceSpec::FalseSharing,
            TraceSpec::PingPong,
            TraceSpec::PrivateStream,
        ] {
            assert_eq!(TraceSpec::from_tag(trace.tag()), Some(trace));
        }
        for p in [
            CoherenceProtocol::WriteInvalidate,
            CoherenceProtocol::WriteUpdate,
        ] {
            assert_eq!(coherence_from_tag(coherence_tag(p)), Some(p));
        }
        for bad in [
            "",
            "senss",
            "senss:m8",
            "senss:m8:i1:rot13",
            "sens:m1:i1:cbc",
            "quux",
            "servas",
            "servas:8",
            "servas:m8:i1",
            "sealer:m8",
            "scattered:n",
            "scattered:nthree",
        ] {
            assert_eq!(SecurityMode::from_tag(bad), None, "{bad}");
        }
        assert_eq!(TraceSpec::from_tag("micro:nope"), None);
        assert_eq!(coherence_from_tag("mesi"), None);
    }

    #[test]
    fn micro_traces_run() {
        let stats = JobSpec {
            trace: TraceSpec::FalseSharing,
            cores: 2,
            l2_bytes: 1 << 20,
            coherence: CoherenceProtocol::WriteInvalidate,
            mode: SecurityMode::Baseline,
            ops_per_core: 500,
            seed: 0,
        }
        .run();
        assert!(stats.total_cycles > 0);
    }
}
