//! The compile workloads: `qft_ladder` (Figure 10) and
//! `paper_families` (Tables III/IV), each compile going from circuit to
//! `DistributedSchedule` on a fresh `CompileSession`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use dc_mbqc::{CompileSession, DistributedSchedule, Transpiled};
use mbqc_net::Client;
use mbqc_pattern::{transpile, Pattern};
use mbqc_util::rng::Rng;

use crate::checks::check_schedule;
use crate::front::{net_overhead_ms, remote_compile, Front};
use crate::layers::{artifact_layers, service_layers, traced_compile, Artifact, StageSamples};
use crate::programs::{self, Program, MAP_WORKERS};
use crate::stats::{geomean, median, ms, peak_rss_mib, quantile, Metrics};
use crate::{Outcome, SETUP_REPS};

/// Set-ups repeated after each pass (see `run`).
const SETUP_REPS_PER_PASS: usize = 3;

/// Which compile workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    QftLadder,
    PaperFamilies,
}

impl Which {
    fn programs(self, seed: u64) -> Vec<Program> {
        match self {
            Which::QftLadder => programs::qft_ladder(),
            Which::PaperFamilies => programs::paper_families(seed),
        }
    }

    /// The `_tail` percentile: the highest with at least ten samples
    /// beyond it at the run's minimum sample count.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Which::QftLadder => 0.90,
            Which::PaperFamilies => 0.88,
        }
    }

    /// Compiles a run makes at least: ten beyond the tail percentile for
    /// the ladder; four whole passes for the families, so every
    /// per-program median is taken over the same number of samples.
    fn min_compiles(self) -> usize {
        match self {
            Which::QftLadder => min_samples(self.tail_quantile()),
            Which::PaperFamilies => 4 * 22,
        }
    }
}

/// Samples needed so that at least ten lie beyond quantile `q`.
pub fn min_samples(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// One checked compile.
pub struct Sample {
    pub pattern: Pattern,
    pub schedule: DistributedSchedule,
    /// Circuit → schedule.
    pub compile: Duration,
    /// The `Mapped` → `Scheduled` segment of the same compile.
    pub schedule_stage: Duration,
    /// Validated decode of the schedule's encoding.
    pub decode: Duration,
}

/// Compiles `circuit` on a fresh session and checks the result. Only
/// the compile and the decode are timed; the checks run outside both
/// spans.
pub fn compile_circuit(
    circuit: &mbqc_circuit::Circuit,
    config: &dc_mbqc::DcMbqcConfig,
) -> Result<Sample, String> {
    let t0 = Instant::now();
    let pattern = transpile(black_box(circuit));
    let transpiled = Transpiled::new(&pattern).map_err(|e| e.to_string())?;
    let mut session = CompileSession::new(config.clone()).with_map_workers(MAP_WORKERS);
    let partitioned = session.partition(transpiled);
    let mapped = session.map(partitioned).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let schedule = black_box(session.schedule(mapped));
    let t2 = Instant::now();
    let (decoded, decode) = decode_timed(&schedule)?;
    check_schedule(&schedule, &decoded, &pattern, config)?;
    Ok(Sample {
        pattern,
        schedule,
        compile: t2 - t0,
        schedule_stage: t2 - t1,
        decode,
    })
}

/// Validated decodes of `s`'s encoding timed per compile; the median
/// is kept, so one decode that pays for fresh pages does not set it.
const DECODE_REPS: usize = 5;

/// The validated decode of `s`'s encoding, and the median time of
/// `DECODE_REPS` decodes.
pub fn decode_timed(s: &DistributedSchedule) -> Result<(DistributedSchedule, Duration), String> {
    let bytes = s.to_bytes();
    let mut times = Vec::with_capacity(DECODE_REPS);
    let mut decoded = None;
    for _ in 0..DECODE_REPS {
        let t = Instant::now();
        let d = DistributedSchedule::from_bytes(black_box(&bytes))
            .map_err(|e| format!("(e) decode: {e}"))?;
        times.push(t.elapsed());
        decoded = Some(d);
    }
    times.sort();
    Ok((
        decoded.expect("decoded at least once"),
        times[DECODE_REPS / 2],
    ))
}

/// Runs `f`, turning a panic into an error so one bad compile counts
/// as a failed operation instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// Per-program record: timings of every pass and the (deterministic)
/// quality of its result.
#[derive(Default)]
struct Record {
    nodes: usize,
    compile_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    schedule_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    quality: Option<(usize, usize, usize)>,
}

/// Running totals of a workload run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    records: BTreeMap<usize, Record>,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    compile_s: f64,
    nodes: f64,
    stages: StageSamples,
    last: BTreeMap<usize, (Pattern, DistributedSchedule)>,
}

impl Tally {
    /// Records one compile's quality, which must repeat exactly on
    /// every pass.
    fn quality(&mut self, i: usize, s: &DistributedSchedule, nodes: usize) -> Result<(), String> {
        let q = (
            s.required_photon_lifetime(),
            s.execution_time(),
            s.cut_edges(),
        );
        let rec = self.records.entry(i).or_default();
        rec.nodes = nodes;
        match rec.quality {
            None => rec.quality = Some(q),
            Some(prev) if prev != q => {
                return Err(format!(
                    "quality {q:?} differs from an earlier pass {prev:?}"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn untraced(&mut self, i: usize, p: &Program) -> Result<(), String> {
        let s = guarded(|| compile_circuit(&p.circuit, &p.config))?;
        self.quality(i, &s.schedule, s.pattern.node_count())?;
        let rec = self.records.get_mut(&i).expect("recorded above");
        rec.compile_ms.push(ms(s.compile));
        rec.decode_ms.push(ms(s.decode));
        rec.schedule_ms.push(ms(s.schedule_stage));
        self.cold_ms.push(ms(s.compile));
        self.warm_ms.push(ms(s.decode));
        self.compile_s += s.compile.as_secs_f64();
        self.nodes += s.pattern.node_count() as f64;
        self.last.insert(i, (s.pattern, s.schedule));
        Ok(())
    }

    fn traced(&mut self, i: usize, p: &Program) -> Result<(), String> {
        let t = guarded(|| traced_compile(&p.circuit, &p.config, MAP_WORKERS))?;
        let (decoded, _) = decode_timed(&t.schedule)?;
        check_schedule(&t.schedule, &decoded, &t.pattern, &p.config)?;
        self.quality(i, &t.schedule, t.pattern.node_count())?;
        self.records
            .get_mut(&i)
            .expect("recorded above")
            .traced_ms
            .push(ms(t.compile));
        self.stages.add(&p.name, &t);
        self.last.insert(i, (t.pattern, t.schedule));
        Ok(())
    }
}

/// Runs a compile workload for `seconds` (whole passes over every
/// program, in a seeded shuffled order). With `trace`, passes alternate
/// between untraced compiles and stage-by-stage traced ones, and the
/// service, store, codec and wire layers are then measured on the
/// run's own programs and artifacts.
pub fn run(which: Which, seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Outcome {
    // Set-up: generate every circuit and configuration, and warm the
    // pipeline with one checked compile of the first program.
    let mut setup = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let programs = black_box(which.programs(seed));
        let warm = compile_circuit(&programs[0].circuit, &programs[0].config);
        setup.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm {
            eprintln!("set-up compile of {}: {e}", programs[0].name);
            std::process::exit(1);
        }
        programs
    };
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPS {
        programs = set_up();
    }

    let mut rng = Rng::seed_from_u64(seed);
    let min = which.min_compiles();
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut pass = 0usize;
    loop {
        let traced_pass = trace && !pass.is_multiple_of(2);
        let mut order: Vec<usize> = (0..programs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            tally.attempted += 1;
            let p = &programs[i];
            let r = if traced_pass {
                tally.traced(i, p)
            } else {
                tally.untraced(i, p)
            };
            if let Err(e) = r {
                tally.failed += 1;
                eprintln!("{}: {e}", p.name);
            }
        }
        pass += 1;
        // More set-ups between passes, outside every timed compile, so
        // `setup_s` samples the machine across the run like the other
        // metrics rather than only at its start.
        for _ in 0..SETUP_REPS_PER_PASS {
            black_box(set_up());
        }
        let whole_round = !trace || pass.is_multiple_of(2);
        // Untraced runs also keep going to their minimum sample count.
        let enough = trace || tally.cold_ms.len() >= min;
        if whole_round && enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mib();

    println!(
        "{:<16} {:>7} {:>9} {:>11} {:>10} {:>8}",
        "program", "nodes", "lifetime", "exec_layers", "cut_edges", "p50_ms"
    );
    let mut per_program_ms = Vec::new();
    let mut lifetimes = Vec::new();
    let mut layers = Vec::new();
    for (i, rec) in &tally.records {
        let (lifetime, exec, cut) = rec.quality.unwrap_or_default();
        let p50 = median(&rec.compile_ms);
        println!(
            "{:<16} {:>7} {:>9} {:>11} {:>10} {:>8.2}",
            programs[*i].name, rec.nodes, lifetime, exec, cut, p50
        );
        per_program_ms.push(p50);
        lifetimes.push(lifetime as f64);
        layers.push(exec as f64);
    }

    let mut m = Metrics::default();
    if trace {
        let untraced: f64 = tally.records.values().map(|r| median(&r.compile_ms)).sum();
        let traced: f64 = tally.records.values().map(|r| median(&r.traced_ms)).sum();
        tally.stages.report(&mut m);
        if let Err(e) = service_probe(&programs, &tally, scratch, &mut m) {
            tally.attempted += 1;
            tally.failed += 1;
            eprintln!("service probe: {e}");
        }
        m.put(
            "trace.overhead_pct",
            100.0 * (traced - untraced) / untraced,
            "%",
        );
    } else {
        let q = which.tail_quantile();
        m.put("setup_s", median(&setup), "s");
        m.put("peak_rss_mb", peak_rss, "MiB");
        m.put("compile_ms_geomean", geomean(&per_program_ms), "ms");
        m.put(
            "knodes_per_s",
            tally.nodes / 1e3 / tally.compile_s,
            "knodes/s",
        );
        m.put("lifetime_geomean", geomean(&lifetimes), "cycles");
        m.put("exec_layers_geomean", geomean(&layers), "layers");
        m.put(
            "jobs_per_s",
            tally.cold_ms.len() as f64 / tally.compile_s,
            "1/s",
        );
        // A pooled median over equally many samples of each program can
        // fall in the gap between two programs' clusters, where it swings
        // with noise; the median of per-program medians does not.
        let p50 = |f: fn(&Record) -> &Vec<f64>| {
            median(
                &tally
                    .records
                    .values()
                    .map(|r| median(f(r)))
                    .collect::<Vec<_>>(),
            )
        };
        m.put("cold_ms_p50", p50(|r| &r.compile_ms), "ms");
        m.put("cold_ms_tail", quantile(&tally.cold_ms, q), "ms");
        m.put("warm_ms_p50", p50(|r| &r.decode_ms), "ms");
        m.put("warm_ms_tail", quantile(&tally.warm_ms, q), "ms");
        m.put("reentry_ms_p50", p50(|r| &r.schedule_ms), "ms");
    }
    eprintln!(
        "{} passes, {} compiles ({} failed) in {:.1} s",
        pass,
        tally.attempted,
        tally.failed,
        start.elapsed().as_secs_f64()
    );
    Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
    }
}

/// The service-side layers on a compile workload's own programs: each
/// program is submitted over TCP cold (all at once, so both workers
/// run), then re-submitted warm and at a K_max variant; warm hits are
/// timed over TCP and in process. Every remote result must equal the
/// in-process compile of the same job.
fn service_probe(
    programs: &[Program],
    tally: &Tally,
    scratch: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut artifacts = Vec::new();
    for (i, (pattern, schedule)) in &tally.last {
        artifacts.push(Artifact {
            pattern,
            config: &programs[*i].config,
            schedule,
        });
    }
    artifact_layers(&artifacts, &scratch.join("store"), m)?;

    let front =
        Front::start(&scratch.join("service"), 64 << 20).map_err(|e| format!("service: {e}"))?;
    let mut client = Client::connect(front.addr()).map_err(|e| format!("connect: {e}"))?;
    let ids: Vec<u64> = artifacts
        .iter()
        .map(|a| client.submit(a.pattern, a.config, Default::default()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("submit: {e}"))?;
    for (a, id) in artifacts.iter().zip(ids) {
        match client.wait(id, None).map_err(|e| format!("wait: {e}"))? {
            Some(mbqc_net::WireOutcome::Ok(s)) if *s == *a.schedule => {}
            Some(mbqc_net::WireOutcome::Ok(_)) => {
                return Err("remote cold job differs from in-process".into())
            }
            other => return Err(format!("remote cold job ended {other:?}")),
        }
    }
    let jobs: Vec<_> = artifacts
        .iter()
        .map(|a| (a.pattern, a.config, a.schedule))
        .collect();
    m.put(
        "net.overhead_ms_p50",
        net_overhead_ms(&front, &mut client, &jobs, 3)?,
        "ms",
    );
    for a in &artifacts {
        let variant = programs::with_kmax(a.config, 2);
        let remote = remote_compile(&mut client, a.pattern, &variant)?;
        let local = guarded(|| {
            CompileSession::new(variant.clone())
                .with_map_workers(MAP_WORKERS)
                .compile_pattern(a.pattern)
                .map_err(|e| e.to_string())
        })?;
        if remote != local {
            return Err("K_max variant differs from in-process compile".into());
        }
    }
    drop(client);
    service_layers(&front.service.stats(), m);
    Ok(())
}
