//! `fabricsim` — run a single simulated Fabric deployment from the command
//! line and print the phase-annotated report (plus the analytic prediction).
//!
//! ```text
//! cargo run -p fabricsim-bench --release --bin fabricsim -- \
//!     --orderer raft --peers 10 --policy AND5 --rate 250 --duration 60
//! ```
//!
//! Several subcommands ride along:
//!
//! ```text
//!   fabricsim analyze [--trace FILE] [--spans FILE] [--health FILE]
//!            [--top K] [--json] [--chrome-out FILE] [--flame-out FILE]
//!       offline analysis of run artifacts. --trace (a --trace-out JSONL
//!       file) gives per-segment latency decomposition (queue vs service),
//!       critical-path dominance histogram, top-K slowest transaction
//!       waterfalls; --spans (a --span-out JSONL file) gives the causal
//!       span-graph analysis: the distributed critical path per committed
//!       transaction, per-actor/per-segment dominance, slowest-endorser and
//!       gossip-depth histograms; --health (a --health-out JSONL file)
//!       prints the regime timeline — every health event, per-station
//!       dwell/onset accounting, and the telescoping verdict (dwells must
//!       tile the horizon within 1e-6 s); with --json its `health` member
//!       is the timeline's own records, one array. --chrome-out writes a
//!       Chrome/Perfetto trace (open in ui.perfetto.dev) — with --spans it
//!       carries flow events so Perfetto draws cross-actor arrows;
//!       --flame-out writes collapsed stacks for flamegraph.pl / inferno
//!       (needs --trace)
//!   fabricsim profile [run flags] [--json]
//!       run with the DES kernel self-profiler enabled and print where host
//!       time went: per-event-label handler ns/counts, heap cost, loop
//!       overhead, hottest family, the run's synchronization cost
//!       (windows, cross-shard messages, events; `"sync"` in --json), what
//!       the validation lane did (blocks handed over, stolen back, waited
//!       for, computed by workers waiting at a barrier, and its busy time;
//!       `"lane"` in --json) and
//!       the SHA-256 body that hashed it (`"sha256_backend"` in --json).
//!       Accepts the same deployment flags as the default run mode
//!   fabricsim diff A B [A2 B2 …] [--json] [--force]
//!       differential run analysis: pairwise-compare run artifacts of the
//!       same kind (run summaries from --json, analyze --json outputs,
//!       profile --json outputs, or --health-out health timelines — the
//!       kind is sniffed from the content), one report over every pair.
//!       Reports per-metric deltas ranked by |delta|, bottleneck/dominance
//!       shifts, and telescoping checks (Σ segment deltas vs the e2e
//!       delta). Mismatched config digests abort with exit 3 unless
//!       --force: a diff across different configs is attribution, not a
//!       regression check
//! ```
//!
//! Flags of the default run mode (all optional):
//!
//! ```text
//!   --orderer solo|kafka|raft        consensus (default solo)
//!   --peers COUNT                    endorsing peers (default 10)
//!   --policy POLICY                  endorsement policy (default OR10)
//!   --rate TPS                       arrival rate (default 100)
//!   --duration SECS                  virtual duration (default 30)
//!   --batch-size COUNT               BatchSize (default 100)
//!   --batch-timeout MS               BatchTimeout (default 1000)
//!   --osns COUNT                     ordering nodes (default 3)
//!   --channels COUNT                 independent channels (default 1)
//!   --sim-workers COUNT              host threads for the run (default 0:
//!                                    one event-loop thread, plus a spare
//!                                    thread that validates blocks ahead of
//!                                    it on a host with a second core; N:
//!                                    the per-channel event loops on min(N,
//!                                    channels) threads, plus the spare
//!                                    thread when N > channels, so 1 is
//!                                    exactly one thread; with 2 or more
//!                                    loops, a loop waiting at a window
//!                                    barrier validates blocks too); output
//!                                    is byte-identical at every count
//!   --validator-pool COUNT           VSCC worker-pool width per committer (default 1)
//!   --brokers COUNT / --zk COUNT     kafka substrate sizes (default 3)
//!   --workload kvput|rmw|transfer|smallbank   (default kvput)
//!   --payload BYTES                  value size for kvput/rmw (default 1)
//!   --seed SEED                      RNG seed (default 42)
//!   --json                           emit a JSON summary (with bottleneck
//!                                    attribution) instead of the report
//!   --trace-out FILE                 record phase events, write JSONL trace
//!   --span-out FILE                  record causal span-graph events, write
//!                                    JSONL spans (analyze with --spans)
//!   --trace-sample RATE              deterministic head-sampling rate in
//!                                    [0,1] for per-tx trace/span records
//!                                    (default 1.0; block-scoped spans are
//!                                    always recorded)
//!   --metrics-out FILE               write the sampler's rows as a CSV
//!                                    table, one row per window
//!   --metrics-window SECS            sampler window width in virtual seconds
//!                                    (default 1.0; at least 0.001; the
//!                                    sampler always runs) — also the
//!                                    health plane's detection window
//!   --health-out FILE                enable the health plane and
//!                                    write its JSONL timeline (regime
//!                                    transitions, bottleneck-shift onsets,
//!                                    SLO burn events + dwell accounting)
//!   --slo-p99-ms MS                  latency objective the SLO burn tracker
//!                                    measures against (default 2000; must
//!                                    be positive)
//! ```

use std::env;
use std::process::exit;

use fabricsim::obs::json::escape;
use fabricsim::obs::{
    chrome_trace, collapsed_stacks, metrics_csv, parse_jsonl_with_provenance,
    parse_spans_jsonl_with_provenance, reconstruct, span_flow_trace, ArtifactDiff, HealthReport,
    RunProvenance, SpanGraphAnalysis, TraceAnalysis,
};
use fabricsim::report::run_summary_json;
use fabricsim::{
    predict, KernelProfile, OrdererType, PolicySpec, SimConfig, Simulation, WorkloadKind,
};

fn usage() -> ! {
    eprintln!("usage: fabricsim [--orderer solo|kafka|raft] [--peers N] [--policy OR10|AND5|...]");
    eprintln!("                 [--rate TPS] [--duration S] [--batch-size N] [--batch-timeout MS]");
    eprintln!(
        "                 [--osns N] [--channels N] [--sim-workers N] [--brokers N] [--zk N]"
    );
    eprintln!("                 [--validator-pool N]");
    eprintln!("                 [--workload kvput|rmw|transfer|smallbank]");
    eprintln!("                 [--payload BYTES] [--seed N] [--json]");
    eprintln!("                 [--trace-out FILE] [--span-out FILE] [--trace-sample RATE]");
    eprintln!("                 [--metrics-out FILE] [--metrics-window SECS]");
    eprintln!("                 [--health-out FILE] [--slo-p99-ms MS]");
    eprintln!("       fabricsim analyze [--trace FILE] [--spans FILE] [--health FILE]");
    eprintln!("                 [--top K] [--json] [--chrome-out FILE] [--flame-out FILE]");
    eprintln!("       fabricsim profile [run flags] [--json]");
    eprintln!("       fabricsim diff A B [A2 B2 …] [--json] [--force]");
    exit(2);
}

/// `fabricsim analyze`: offline latency decomposition of a JSONL trace
/// and/or causal span-graph critical-path analysis of a JSONL span file.
fn cmd_analyze(args: &[String]) -> ! {
    let mut trace: Option<String> = None;
    let mut spans_in: Option<String> = None;
    let mut health_in: Option<String> = None;
    let mut top = 5usize;
    let mut json = false;
    let mut chrome_out: Option<String> = None;
    let mut flame_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--trace" => trace = Some(value()),
            "--spans" => spans_in = Some(value()),
            "--health" => health_in = Some(value()),
            "--top" => top = value().parse().unwrap_or_else(|_| usage()),
            "--json" => json = true,
            "--chrome-out" => chrome_out = Some(value()),
            "--flame-out" => flame_out = Some(value()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown analyze flag {other:?}");
                usage()
            }
        }
    }
    if trace.is_none() && spans_in.is_none() && health_in.is_none() {
        eprintln!(
            "analyze requires --trace FILE (from --trace-out), --spans FILE (from \
             --span-out) and/or --health FILE (from --health-out)"
        );
        exit(2);
    }
    // One loader for the three JSONL artifacts: read, decode, split off the
    // provenance header.
    fn load<T>(
        path: Option<&String>,
        what: &str,
        decode: impl Fn(&str) -> Result<(Option<RunProvenance>, T), String>,
    ) -> (Option<RunProvenance>, Option<T>) {
        let Some(path) = path else {
            return (None, None);
        };
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {what} {path}: {e}");
            exit(1);
        });
        let (prov, records) = decode(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {what} {path}: {e}");
            exit(1);
        });
        (prov, Some(records))
    }
    let (trace_prov, events) = load(trace.as_ref(), "trace", parse_jsonl_with_provenance);
    let (span_prov, spans) = load(
        spans_in.as_ref(),
        "spans",
        parse_spans_jsonl_with_provenance,
    );
    let (health_prov, health) = load(
        health_in.as_ref(),
        "health timeline",
        HealthReport::from_jsonl,
    );
    let present: Vec<(&str, &RunProvenance)> = [
        ("trace", &trace_prov),
        ("span", &span_prov),
        ("health", &health_prov),
    ]
    .iter()
    .filter_map(|(name, p)| p.as_ref().map(|p| (*name, p)))
    .collect();
    for pair in present.windows(2) {
        let ((na, pa), (nb, pb)) = (pair[0], pair[1]);
        if pa != pb {
            eprintln!(
                "warning: {na} and {nb} files come from different runs \
                 (seed {}/digest {} vs seed {}/digest {})",
                pa.seed, pa.config_digest, pb.seed, pb.config_digest
            );
        }
    }
    let provenance = trace_prov.or(span_prov).or(health_prov);
    if let Some(out) = &chrome_out {
        // Spans give the richer export: slices per actor plus flow arrows
        // along every parent edge. Phase-event traces give the classic
        // per-station waterfall.
        let body = match (&spans, &events) {
            (Some(s), _) => span_flow_trace(s),
            (None, Some(e)) => chrome_trace(e),
            (None, None) => {
                eprintln!("--chrome-out needs --trace and/or --spans");
                exit(2);
            }
        };
        if let Err(e) = std::fs::write(out, body) {
            eprintln!("cannot write chrome trace to {out}: {e}");
            exit(1);
        }
        eprintln!("wrote chrome trace {out} (open in ui.perfetto.dev or chrome://tracing)");
    }
    if let Some(out) = &flame_out {
        let Some(events) = &events else {
            eprintln!("--flame-out needs --trace FILE (collapsed stacks come from phase events)");
            exit(2);
        };
        let tx_spans = reconstruct(events);
        if let Err(e) = std::fs::write(out, collapsed_stacks(&tx_spans)) {
            eprintln!("cannot write collapsed stacks to {out}: {e}");
            exit(1);
        }
        eprintln!("wrote collapsed stacks {out} (feed to flamegraph.pl or inferno-flamegraph)");
    }
    let trace_analysis = events.as_ref().map(|e| TraceAnalysis::from_events(e, top));
    let span_analysis = spans.as_ref().map(|s| SpanGraphAnalysis::from_spans(s));
    if json {
        // Always the wrapped form, so `fabricsim diff` (and any other
        // consumer) sees the run provenance next to the analyses.
        let prov = provenance
            .as_ref()
            .map_or_else(|| "null".to_string(), RunProvenance::to_json);
        let mut out = format!("{{\"provenance\":{prov}");
        if let Some(t) = &trace_analysis {
            out.push_str(&format!(",\"trace\":{}", t.to_json()));
        }
        if let Some(g) = &span_analysis {
            out.push_str(&format!(",\"span_graph\":{}", g.to_json()));
        }
        if let Some(h) = &health {
            out.push_str(&format!(",\"health\":[{}]", h.records().join(",")));
        }
        out.push('}');
        println!("{out}");
    } else {
        if let Some(p) = &provenance {
            println!(
                "provenance : seed {}, config digest {}",
                p.seed, p.config_digest
            );
        }
        if let Some(t) = &trace_analysis {
            print!("{}", t.render_table());
        }
        if let Some(g) = &span_analysis {
            print!("{}", g.render_table());
        }
        if let Some(h) = &health {
            print!("{}", h.render_timeline());
        }
    }
    exit(0);
}

/// `fabricsim diff`: pairwise differential analysis of run artifacts, given
/// as consecutive A B pairs (each pair's kind is sniffed on its own).
fn cmd_diff(args: &[String]) -> ! {
    let mut json = false;
    let mut force = false;
    let mut paths: Vec<&String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--force" => force = true,
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown diff flag {other:?}");
                usage()
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() || !paths.len().is_multiple_of(2) {
        eprintln!("diff requires artifact files in pairs (A B [A2 B2 …])");
        exit(2);
    }
    let diffs: Vec<ArtifactDiff> = paths
        .chunks_exact(2)
        .map(|pair| {
            let (pa, pb) = (pair[0], pair[1]);
            let read = |path: &String| {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    exit(1);
                })
            };
            ArtifactDiff::from_json_strs(&read(pa), &read(pb)).unwrap_or_else(|e| {
                eprintln!("cannot diff {pa} vs {pb}: {e}");
                exit(1);
            })
        })
        .collect();
    let mismatched: Vec<&ArtifactDiff> = diffs
        .iter()
        .filter(|d| d.digest_match == Some(false))
        .collect();
    if !mismatched.is_empty() && !force {
        for d in &mismatched {
            eprintln!(
                "{}: config digests differ ({} vs {}) — these are different experiments",
                d.kind.label(),
                d.provenance[0].config_digest.as_deref().unwrap_or("?"),
                d.provenance[1].config_digest.as_deref().unwrap_or("?"),
            );
        }
        eprintln!("refusing to diff across configs; rerun with --force for attribution mode");
        exit(3);
    }
    if json {
        let max_abs_delta = diffs
            .iter()
            .map(ArtifactDiff::max_abs_delta)
            .fold(0.0, f64::max);
        let mut out = String::from("{\"artifacts\":[");
        for (i, d) in diffs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str(&format!("],\"max_abs_delta\":{max_abs_delta}"));
        out.push_str(",\"bottleneck_shifts\":[");
        let mut first = true;
        for d in &diffs {
            for s in d.shifts() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"artifact\":\"{}\",\"dimension\":\"{}\",\"a\":\"{}\",\"b\":\"{}\"}}",
                    d.kind.label(),
                    escape(&s.dimension),
                    escape(&s.a),
                    escape(&s.b)
                ));
            }
        }
        out.push_str(&format!("],\"forced\":{force}}}"));
        println!("{out}");
    } else {
        for d in &diffs {
            print!("{}", d.render_table());
            println!();
        }
        let shifts = diffs.iter().flat_map(|d| d.shifts()).count();
        let residual = diffs
            .iter()
            .map(ArtifactDiff::max_telescope_residual_s)
            .fold(0.0, f64::max);
        println!(
            "summary    : {} artifact(s) diffed, {shifts} dominance shift(s), max telescoping residual {residual:.3e}s",
            diffs.len()
        );
    }
    exit(0);
}

fn parse_policy(s: &str) -> PolicySpec {
    if let Some(n) = s.strip_prefix("OR").and_then(|n| n.parse().ok()) {
        return PolicySpec::OrN(n);
    }
    if let Some(x) = s.strip_prefix("AND").and_then(|x| x.parse().ok()) {
        return PolicySpec::AndX(x);
    }
    PolicySpec::Custom(s.to_string())
}

/// Applies one *deployment* flag — the subset shared by the default run mode
/// and `fabricsim profile`. Returns `false` when `flag` is not a deployment
/// flag so the caller can try its mode-specific flags.
fn apply_deploy_flag(
    cfg: &mut SimConfig,
    workload: &mut String,
    payload: &mut usize,
    flag: &str,
    value: &mut dyn FnMut() -> String,
) -> bool {
    match flag {
        "--orderer" => {
            cfg.orderer_type = match value().to_lowercase().as_str() {
                "solo" => OrdererType::Solo,
                "kafka" => OrdererType::Kafka,
                "raft" => OrdererType::Raft,
                other => {
                    eprintln!("unknown orderer {other:?}");
                    usage()
                }
            }
        }
        "--peers" => cfg.endorsing_peers = value().parse().unwrap_or_else(|_| usage()),
        "--policy" => cfg.policy = parse_policy(&value()),
        "--rate" => cfg.arrival_rate_tps = value().parse().unwrap_or_else(|_| usage()),
        "--duration" => {
            cfg.duration_secs = value().parse().unwrap_or_else(|_| usage());
            cfg.warmup_secs = (cfg.duration_secs * 0.2).min(12.0);
            cfg.cooldown_secs = (cfg.duration_secs * 0.1).min(5.0);
        }
        "--batch-size" => cfg.batch.max_message_count = value().parse().unwrap_or_else(|_| usage()),
        "--batch-timeout" => {
            cfg.batch.batch_timeout_ms = value().parse().unwrap_or_else(|_| usage())
        }
        "--osns" => cfg.osn_count = value().parse().unwrap_or_else(|_| usage()),
        "--channels" => cfg.channels = value().parse().unwrap_or_else(|_| usage()),
        "--sim-workers" => cfg.sim_workers = value().parse().unwrap_or_else(|_| usage()),
        "--validator-pool" => {
            cfg.cost.validator_pool_size = value().parse().unwrap_or_else(|_| usage())
        }
        "--brokers" => cfg.broker_count = value().parse().unwrap_or_else(|_| usage()),
        "--zk" => cfg.zk_count = value().parse().unwrap_or_else(|_| usage()),
        "--workload" => *workload = value().to_lowercase(),
        "--payload" => *payload = value().parse().unwrap_or_else(|_| usage()),
        "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
        _ => return false,
    }
    true
}

/// Resolves the `--workload`/`--payload` strings into [`WorkloadKind`].
fn set_workload(cfg: &mut SimConfig, workload: &str, payload: usize) {
    cfg.workload = match workload {
        "kvput" => WorkloadKind::KvPut {
            payload_bytes: payload,
        },
        "rmw" => WorkloadKind::KvRmw {
            keyspace: 64,
            payload_bytes: payload,
        },
        "transfer" => WorkloadKind::Transfer { accounts: 200 },
        "smallbank" => WorkloadKind::Smallbank { customers: 100 },
        other => {
            eprintln!("unknown workload {other:?}");
            usage()
        }
    };
}

/// `fabricsim profile`: run one deployment with the DES kernel self-profiler
/// enabled and report where host time in the event loop went.
fn cmd_profile(args: &[String]) -> ! {
    let mut cfg = SimConfig {
        duration_secs: 20.0,
        warmup_secs: 4.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    let mut payload = 1usize;
    let mut workload = "kvput".to_string();
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        if apply_deploy_flag(&mut cfg, &mut workload, &mut payload, flag, &mut value) {
            continue;
        }
        match flag.as_str() {
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown profile flag {other:?}");
                usage()
            }
        }
    }
    set_workload(&mut cfg, &workload, payload);
    cfg.obs.profile = true;
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        exit(2);
    }
    let label = format!(
        "{}/{} λ={:.0}",
        cfg.orderer_type,
        cfg.policy.label(),
        cfg.arrival_rate_tps
    );
    let result = Simulation::new(cfg).run_detailed();
    let Some(profile) = &result.observability.profile else {
        eprintln!("internal error: profiled run returned no kernel profile");
        exit(1);
    };
    let shards = &result.observability.shard_profiles;
    let sync = &result.observability.sync;
    let lane = &result.observability.lane;
    let s = &result.summary;
    // Host ns depend on which SHA-256 body the CPU selected, so the profile
    // names it next to the run's provenance.
    let backend = fabricsim_crypto::sha256_backend();
    if json {
        // Provenance rides along so `fabricsim diff` can refuse to compare
        // profiles from different configurations.
        let per_shard: Vec<String> = shards.iter().map(KernelProfile::to_json).collect();
        println!(
            "{{\"seed\":{},\"config_digest\":\"{}\",\"sha256_backend\":\"{backend}\",\
             \"merged\":{},\"shards\":[{}],\
             \"sync\":{{\"windows\":{},\"messages\":{},\"events\":{}}},\
             \"lane\":{{\"jobs\":{},\"stolen\":{},\"waits\":{},\"helped\":{},\"busy_s\":{:.6}}}}}",
            s.seed,
            s.config_digest,
            profile.to_json(),
            per_shard.join(","),
            sync.windows,
            sync.messages,
            sync.events,
            lane.jobs,
            lane.stolen,
            lane.waits,
            lane.helped,
            lane.busy_s
        );
    } else {
        println!("== {label}: kernel self-profile ==");
        println!(
            "provenance : seed {}, config digest {}, sha256 backend {backend}",
            s.seed, s.config_digest
        );
        print!("{}", profile.render_table());
        for (s, p) in shards.iter().enumerate() {
            println!("-- shard {s} --");
            print!("{}", p.render_table());
        }
        println!(
            "sync       : windows {}, cross-shard messages {}, events {}",
            sync.windows, sync.messages, sync.events
        );
        println!(
            "lane       : jobs {}, stolen {}, waits {}, helped {}, busy {:.3} ms",
            lane.jobs,
            lane.stolen,
            lane.waits,
            lane.helped,
            lane.busy_s * 1e3
        );
        println!(
            "accounting : attributed {:.3} ms vs loop {:.3} ms ({} committed tx at {:.1} tps)",
            profile.attributed_ns() as f64 / 1e6,
            profile.loop_ns as f64 / 1e6,
            result.summary.committed_valid,
            result.summary.validate.throughput_tps,
        );
    }
    exit(0);
}

fn main() {
    let mut cfg = SimConfig {
        duration_secs: 30.0,
        warmup_secs: 6.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    let mut payload = 1usize;
    let mut workload = "kvput".to_string();
    let mut json = false;
    let mut trace_out: Option<String> = None;
    let mut span_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut health_out: Option<String> = None;

    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => {}
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        if apply_deploy_flag(&mut cfg, &mut workload, &mut payload, flag, &mut value) {
            continue;
        }
        match flag.as_str() {
            "--json" => json = true,
            "--trace-out" => trace_out = Some(value()),
            "--span-out" => span_out = Some(value()),
            // `SimConfig::validate` checks the ranges of these three.
            "--trace-sample" => {
                cfg.obs.trace_sample = value().parse().unwrap_or_else(|_| usage());
            }
            "--metrics-out" => metrics_out = Some(value()),
            "--metrics-window" => {
                cfg.obs.sample_period_s = value().parse().unwrap_or_else(|_| usage());
            }
            "--health-out" => health_out = Some(value()),
            "--slo-p99-ms" => {
                let ms: f64 = value().parse().unwrap_or_else(|_| usage());
                cfg.obs.slo_p99_s = ms / 1000.0;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    set_workload(&mut cfg, &workload, payload);
    if trace_out.is_some() {
        cfg.obs.trace_events = true;
    }
    if span_out.is_some() {
        cfg.obs.span_events = true;
    }
    if health_out.is_some() {
        cfg.obs.health_events = true;
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid configuration: {e}");
        exit(2);
    }

    let prediction = predict(&cfg);
    let label = format!(
        "{}/{} λ={:.0}",
        cfg.orderer_type,
        cfg.policy.label(),
        cfg.arrival_rate_tps
    );
    let period = cfg.obs.sample_period_s;
    let result = Simulation::new(cfg).run_detailed();
    let s = &result.summary;

    // Both artifact files open with a provenance header line, so offline
    // tooling (`analyze`, `diff`) knows which run produced them.
    let provenance = RunProvenance {
        seed: s.seed,
        config_digest: s.config_digest.clone(),
    };
    let write_jsonl = |path: &str, what: &str, records: String| {
        if let Err(e) = std::fs::write(path, format!("{}\n{records}", provenance.to_json())) {
            eprintln!("cannot write {what} to {path}: {e}");
            exit(1);
        }
    };
    if let Some(path) = &trace_out {
        write_jsonl(path, "trace", result.observability.events_jsonl());
    }
    if let Some(path) = &span_out {
        write_jsonl(path, "spans", result.observability.spans_jsonl());
    }
    if let Some(path) = &metrics_out {
        let text = metrics_csv(period, &result.observability.samples);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write metrics to {path}: {e}");
            exit(1);
        }
    }
    if let Some(path) = &health_out {
        let Some(health) = &result.observability.health else {
            eprintln!("internal error: health-enabled run returned no health report");
            exit(1);
        };
        if let Err(e) = std::fs::write(path, health.to_jsonl(Some(&provenance))) {
            eprintln!("cannot write health timeline to {path}: {e}");
            exit(1);
        }
        if health.dropped_events > 0 {
            eprintln!(
                "warning: bounded health buffer evicted {} event(s)",
                health.dropped_events
            );
        }
    }
    if result.observability.dropped_events > 0 || result.observability.dropped_spans > 0 {
        eprintln!(
            "warning: bounded sinks evicted {} trace event(s) and {} span(s); lower --trace-sample",
            result.observability.dropped_events, result.observability.dropped_spans
        );
    }

    if json {
        println!("{}", run_summary_json(&label, &result));
        return;
    }

    println!("== {label} ==");
    println!(
        "throughput : execute {:.1} | order {:.1} | validate {:.1} tps (offered {:.0})",
        s.execute.throughput_tps, s.order.throughput_tps, s.validate.throughput_tps, s.offered_tps
    );
    println!(
        "latency    : execute {:.3}s | order+validate {:.3}s | end-to-end {:.3}s (p95 {:.3}s)",
        s.execute.latency.mean_s,
        s.validate.latency.mean_s,
        s.overall_latency.mean_s,
        s.overall_latency.p95_s
    );
    println!(
        "blocks     : {} cut, mean {:.2}s apart, {:.1} tx each",
        s.blocks_cut, s.mean_block_time_s, s.mean_block_size
    );
    println!(
        "outcomes   : {} valid, {} invalid, {} overload-dropped, {} ordering-timeouts, {} endorsement-failures",
        s.committed_valid, s.committed_invalid, s.overload_dropped, s.ordering_timeouts, s.endorsement_failures
    );
    let (hot_name, hot_load) = result.utilization.hottest();
    println!(
        "bottleneck : {hot_name} at {:.0}% utilization",
        hot_load * 100.0
    );
    println!(
        "analytic   : peak {:.0} tps ({} binds) | exec {:.3}s | o+v {:.3}s | block {:.2}s",
        prediction.peak_committed_tps,
        prediction.bottleneck,
        prediction.execute_latency_s,
        prediction.order_validate_latency_s,
        prediction.block_time_s
    );
    println!(
        "ledger     : height {}, chain verified: {}",
        result.observer_height, result.chain_ok
    );
    println!(
        "provenance : seed {}, config digest {}",
        s.seed, s.config_digest
    );
    println!();
    print!("{}", result.observability.bottleneck.render_table());
}
