//! Per-layer measurements for the traced runs: the pipeline stages
//! called one by one, and the codec, store, wire and service layers
//! timed on a run's own artifacts. Spans are taken around calls into
//! each layer's public functions; nothing inside the program changes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use dc_mbqc::{
    map_stage, partition_stage, schedule_stage, DcMbqcConfig, DistributedSchedule, Transpiled,
};
use mbqc_circuit::Circuit;
use mbqc_net::{Request, Response, WireJobOptions, WireOutcome};
use mbqc_partition::KwayWorkspace;
use mbqc_pattern::{transpile, Pattern};
use mbqc_schedule::{bdir_with, default_priorities, list_schedule_with, ScheduleWorkspace};
use mbqc_service::{ArtifactKey, ArtifactStore, PipelineStage, ServiceStats, StoreConfig};

use crate::stats::{geomean, median, ms, us, Metrics};

/// Stage spans of one traced compile, in ms.
const STAGE_SPANS: [&str; 7] = [
    "pattern.transpile_ms",
    "core.flow_ms",
    "partition.stage_ms",
    "compiler.map_ms",
    "schedule.stage_ms",
    "schedule.list_ms",
    "schedule.bdir_ms",
];

/// Work counts of one compile; deterministic per (program, config).
const STAGE_COUNTS: [&str; 5] = [
    "partition.alpha_probes",
    "partition.cut_edges",
    "compiler.layers",
    "compiler.routing_fusions",
    "schedule.sync_tasks",
];

/// One traced compile: its result, the end-to-end time of the stage
/// calls (`transpile` through `schedule_stage`), and every span and
/// count.
pub struct Traced {
    pub pattern: Pattern,
    pub schedule: DistributedSchedule,
    pub compile: Duration,
    pub spans: [f64; 7],
    pub counts: [f64; 5],
}

/// Compiles `circuit` stage by stage with a span around each call, then
/// re-runs list scheduling and BDIR on the result's problem to split
/// the scheduling stage. The re-run must reproduce the schedule.
pub fn traced_compile(
    circuit: &Circuit,
    config: &DcMbqcConfig,
    map_workers: usize,
) -> Result<Traced, String> {
    let t0 = Instant::now();
    let pattern = transpile(black_box(circuit));
    let t1 = Instant::now();
    let transpiled = Transpiled::new(&pattern).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let partitioned = partition_stage(config, transpiled, &mut KwayWorkspace::new());
    let t3 = Instant::now();
    let alpha_probes = partitioned.adaptive().history.len();
    let mapped =
        map_stage(config, partitioned, map_workers, &mut Vec::new()).map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let layers: usize = mapped.programs().iter().map(|p| p.num_layers).sum();
    let routing: usize = mapped.programs().iter().map(|p| p.routing_fusions).sum();
    let schedule = schedule_stage(config, mapped, &mut ScheduleWorkspace::new());
    let t5 = Instant::now();
    let schedule = black_box(schedule);

    let problem = schedule.problem();
    let mut ws = ScheduleWorkspace::new();
    let t6 = Instant::now();
    let init = list_schedule_with(problem, &default_priorities(problem), None, &mut ws);
    let t7 = Instant::now();
    let rerun = match config.bdir {
        Some(mut b) => {
            b.seed = config.seed;
            bdir_with(problem, &init, &b, &mut ws)
        }
        None => init,
    };
    let t8 = Instant::now();
    if &rerun != schedule.schedule() {
        return Err("list + BDIR re-run does not reproduce the schedule".into());
    }
    let spans = [
        ms(t1 - t0),
        ms(t2 - t1),
        ms(t3 - t2),
        ms(t4 - t3),
        ms(t5 - t4),
        ms(t7 - t6),
        ms(t8 - t7),
    ];
    let counts = [
        alpha_probes as f64,
        schedule.cut_edges() as f64,
        layers as f64,
        routing as f64,
        problem.sync_tasks.len() as f64,
    ];
    Ok(Traced {
        pattern,
        schedule,
        compile: t5 - t0,
        spans,
        counts,
    })
}

/// Span samples per program, reduced to the per-layer metrics.
#[derive(Default)]
pub struct StageSamples {
    spans: BTreeMap<String, Vec<[f64; 7]>>,
    counts: BTreeMap<String, [f64; 5]>,
}

impl StageSamples {
    pub fn add(&mut self, program: &str, t: &Traced) {
        self.spans
            .entry(program.to_string())
            .or_default()
            .push(t.spans);
        self.counts.insert(program.to_string(), t.counts);
    }

    /// Span metrics: geomean over programs of each program's median.
    /// Count metrics: summed over programs (one compile each).
    pub fn report(&self, m: &mut Metrics) {
        for (i, name) in STAGE_SPANS.iter().enumerate() {
            let per_program: Vec<f64> = self
                .spans
                .values()
                .map(|v| median(&v.iter().map(|s| s[i]).collect::<Vec<_>>()))
                .collect();
            m.put(*name, geomean(&per_program), "ms");
        }
        for (i, name) in STAGE_COUNTS.iter().enumerate() {
            m.put(*name, self.counts.values().map(|c| c[i]).sum(), "count");
        }
    }
}

/// One compiled job whose artifacts the codec, store and wire layers
/// are timed on.
pub struct Artifact<'a> {
    pub pattern: &'a Pattern,
    pub config: &'a DcMbqcConfig,
    pub schedule: &'a DistributedSchedule,
}

const REPS: usize = 5;

fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            (Instant::now() - t).as_secs_f64()
        })
        .collect();
    v.sort_by(f64::total_cmp);
    Duration::from_secs_f64(v[v.len() / 2])
}

/// Codec, wire-message and store timings on `artifacts`: the
/// `Scheduled` artifact's encode/decode, the `Submit` request and
/// `Outcome` reply encode/decode, and `ArtifactStore::put`/`get` on a
/// disk-backed store in `store_dir` whose memory tier holds about half
/// of them, so reads come from both tiers. Times are geomeans over
/// artifacts of each one's median; sizes are means.
pub fn artifact_layers(
    artifacts: &[Artifact<'_>],
    store_dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut sizes = (0.0, 0.0, 0.0);
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut req_enc = Vec::new();
    let mut reply_dec = Vec::new();
    let mut encoded = Vec::new();
    for a in artifacts {
        let bytes = a.schedule.to_bytes();
        enc.push(us(median_time(REPS, || {
            black_box(a.schedule.to_bytes());
        })));
        dec.push(us(median_time(REPS, || {
            black_box(DistributedSchedule::from_bytes(&bytes).expect("own artifact decodes"));
        })));
        let req = Request::Submit {
            pattern: a.pattern.clone(),
            config: a.config.clone(),
            options: WireJobOptions::default(),
        };
        let req_bytes = req.to_bytes();
        req_enc.push(us(median_time(REPS, || {
            black_box(req.to_bytes());
        })));
        let reply = Response::Outcome(WireOutcome::Ok(Box::new(a.schedule.clone())));
        let reply_bytes = reply.to_bytes();
        reply_dec.push(us(median_time(REPS, || {
            black_box(Response::from_bytes(&reply_bytes).expect("own reply decodes"));
        })));
        if Response::from_bytes(&reply_bytes).ok() != Some(reply) {
            return Err("reply codec round trip differs".into());
        }
        sizes.0 += bytes.len() as f64;
        sizes.1 += req_bytes.len() as f64;
        sizes.2 += reply_bytes.len() as f64;
        let key = ArtifactKey::new(
            PipelineStage::Schedule,
            &a.config.stage_fingerprint_bytes(PipelineStage::Schedule),
            &a.pattern.content_bytes(),
        );
        encoded.push((key, bytes));
    }
    let n = artifacts.len().max(1) as f64;
    m.put("codec.artifact_bytes", sizes.0 / n, "bytes");
    m.put("codec.encode_us", geomean(&enc), "us");
    m.put("codec.decode_us", geomean(&dec), "us");
    m.put("net.request_bytes", sizes.1 / n, "bytes");
    m.put("net.reply_bytes", sizes.2 / n, "bytes");
    m.put("net.request_encode_us", geomean(&req_enc), "us");
    m.put("net.reply_decode_us", geomean(&reply_dec), "us");

    let total: usize = encoded.iter().map(|(_, b)| b.len()).sum();
    let store = ArtifactStore::new(StoreConfig {
        memory_capacity: total / 2,
        disk_dir: Some(store_dir.to_path_buf()),
        ..StoreConfig::default()
    })
    .map_err(|e| format!("store: {e}"))?;
    let mut put = Vec::new();
    for (key, bytes) in &encoded {
        let value = bytes.clone();
        let t = Instant::now();
        store.put(key, value);
        put.push(us(Instant::now() - t));
    }
    let mut get = Vec::new();
    for (key, bytes) in &encoded {
        let t = Instant::now();
        let got = store.get(key);
        get.push(us(Instant::now() - t));
        if got.as_deref() != Some(bytes.as_slice()) {
            return Err("store returned a different artifact".into());
        }
    }
    m.put("store.put_us", median(&put), "us");
    m.put("store.get_us", median(&get), "us");
    Ok(())
}

/// The counters and histograms the service keeps, as per-layer metrics.
pub fn service_layers(s: &ServiceStats, m: &mut Metrics) {
    let ns_to_ms = |ns: u64| ns as f64 / 1e6;
    m.put(
        "service.queue_wait_ms_p50",
        ns_to_ms(s.queue_wait.p50),
        "ms",
    );
    for (i, stage) in ["transpile", "partition", "map", "schedule"]
        .iter()
        .enumerate()
    {
        m.put(
            format!("service.stage_ms_p50.{stage}"),
            ns_to_ms(s.stage_latency[i].p50),
            "ms",
        );
    }
    m.put("service.warm_hit_ms_p50", ns_to_ms(s.warm_hit.p50), "ms");
    m.put("service.full_compiles", s.full_compiles as f64, "count");
    m.put("service.hits_scheduled", s.hits_scheduled as f64, "count");
    m.put("service.hits_mapped", s.hits_mapped as f64, "count");
    m.put("service.dedup_hits", s.dedup_hits as f64, "count");
    m.put("store.memory_hits", s.store.memory_hits as f64, "count");
    m.put("store.disk_hits", s.store.disk_hits as f64, "count");
    m.put("store.misses", s.store.misses as f64, "count");
    m.put("store.disk_writes", s.store.disk_writes as f64, "count");
    m.put("store.evictions", s.store.evictions as f64, "count");
    m.put("store.compactions", s.store.compactions as f64, "count");
}
