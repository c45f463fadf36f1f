//! The `service_mix` workload: a `CompileService` with a disk tier
//! behind `mbqc_net::Server` on loopback, driven by two closed-loop
//! client connections with a seeded stream of fresh, repeat and K_max
//! variant jobs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dc_mbqc::{CompileSession, DcMbqcConfig, DistributedSchedule};
use mbqc_net::Client;
use mbqc_pattern::{transpile, Pattern};
use mbqc_util::rng::Rng;
use mbqc_util::Fingerprint;

use crate::checks::check_schedule;
use crate::compile::{compile_circuit, decode_timed, guarded};
use crate::front::{net_overhead_ms, remote_compile, Front};
use crate::layers::{artifact_layers, service_layers, traced_compile, Artifact, StageSamples};
use crate::programs::{self, Program, MAP_WORKERS};
use crate::stats::{geomean, median, ms, peak_rss_mib, quantile, Metrics};
use crate::{Outcome, SETUP_REPS};

/// Client connections (one closed-loop generator each).
const CLIENTS: usize = 2;
/// Memory-tier budget: well below the run's artifact working set, so
/// warm hits come from both the memory and the disk tier.
const MEMORY_BUDGET: usize = 8 << 20;
/// Jobs per owned base program in one round of a client's stream: one
/// fresh job, one repeat of the base's latest job, two repeats of one of
/// its recent jobs, and one K_max variant. In the first round a base's
/// fresh job comes before its other slots. Whole rounds keep the class
/// and program make-up of every run identical. The 20/60/20 split is an
/// assumption, not a measured production mix (see README).
const ROUND: [Item; 5] = [
    Item::Fresh,
    Item::RepeatLatest,
    Item::RepeatAny,
    Item::RepeatAny,
    Item::Variant,
];
/// A `RepeatAny` slot revisits one of the base's last this-many jobs,
/// so the disk working set the run reads back stays bounded however
/// many jobs the machine gets through.
const REPEAT_WINDOW: usize = 12;
/// K_max values a variant job may take (the base jobs run at 4).
const VARIANT_KMAX: [usize; 6] = [1, 2, 3, 5, 6, 8];
/// Tail percentiles: cold jobs (p90) and warm hits (p95).
const COLD_TAIL: f64 = 0.90;
const WARM_TAIL: f64 = 0.95;
/// The known-fault job checked once per client round: this base under
/// this compiler seed, compiled in process with two probe workers,
/// panics in speculative α-probing (README, "Known faults"). Fixed, so
/// it fails the same way whatever the workload seed.
const FAULT_BASE: &str = "VQE-36/T3";
const FAULT_SEED: u64 = 2031;
/// The panic message of that fault.
const ALPHA_FAULT: &str = "alpha must be at least 1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh,
    Repeat,
    Variant,
}

/// One slot of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Fresh,
    /// The base's most recent job, likely still in the memory tier.
    RepeatLatest,
    /// An earlier job of the base, likely read from the disk tier.
    RepeatAny,
    Variant,
}

/// A job as the generator made it.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    class: Class,
    base: usize,
    kmax: usize,
    seed: u64,
}

/// A completed distinct job (fresh or variant).
#[derive(Debug, Clone)]
struct Done {
    spec: JobSpec,
    fingerprint: Fingerprint,
    variants_left: Vec<usize>,
}

/// One client's deterministic stream: every choice depends only on the
/// seed and on the client's own completed jobs, never on timing. Each
/// client owns every `CLIENTS`-th base program.
struct Stream {
    rng: Rng,
    owned: Vec<usize>,
    pending: Vec<(Item, usize)>,
    fresh_count: u64,
    rounds: u64,
}

impl Stream {
    fn new(rng: Rng, client: usize, bases: usize) -> Stream {
        Stream {
            rng,
            owned: (client..bases).step_by(CLIENTS).collect(),
            pending: Vec::new(),
            fresh_count: 0,
            rounds: 0,
        }
    }

    /// Whether the stream sits at a round boundary.
    fn at_round_end(&self) -> bool {
        self.pending.is_empty()
    }

    /// The next job, and for a repeat the index of the job it repeats.
    fn next(&mut self, done: &mut [Done]) -> (JobSpec, Option<usize>) {
        if self.pending.is_empty() {
            for &b in &self.owned {
                self.pending.extend(ROUND.iter().map(|&item| (item, b)));
            }
            self.rng.shuffle(&mut self.pending);
            if self.rounds == 0 {
                // Jobs pop from the end: each base's fresh job moves to
                // the last of its slots, so it runs before anything
                // revisits the base.
                for &b in &self.owned {
                    let of_base = |&(_, base): &(Item, usize)| base == b;
                    let last = self.pending.iter().rposition(of_base);
                    let fresh = self
                        .pending
                        .iter()
                        .position(|&(item, base)| item == Item::Fresh && base == b);
                    if let (Some(last), Some(fresh)) = (last, fresh) {
                        self.pending.swap(last, fresh);
                    }
                }
            }
            self.rounds += 1;
        }
        let (item, base) = self.pending.pop().expect("round refilled above");
        let first = self.fresh_count < self.owned.len() as u64;
        let of_base: Vec<usize> = (0..done.len())
            .filter(|&i| done[i].spec.base == base)
            .collect();
        let open = of_base
            .iter()
            .rev()
            .copied()
            .find(|&i| !done[i].variants_left.is_empty());
        match (item, of_base.last(), open) {
            (Item::RepeatLatest, Some(&i), _) => (
                JobSpec {
                    class: Class::Repeat,
                    ..done[i].spec
                },
                Some(i),
            ),
            (Item::RepeatAny, Some(_), _) => {
                let recent = &of_base[of_base.len().saturating_sub(REPEAT_WINDOW)..];
                let i = recent[self.rng.range(recent.len())];
                (
                    JobSpec {
                        class: Class::Repeat,
                        ..done[i].spec
                    },
                    Some(i),
                )
            }
            (Item::Variant, _, Some(i)) => {
                let left = &mut done[i].variants_left;
                let kmax = left.remove(self.rng.range(left.len()));
                (
                    JobSpec {
                        class: Class::Variant,
                        kmax,
                        ..done[i].spec
                    },
                    None,
                )
            }
            // A fresh slot, or (only after failed jobs) nothing to revisit.
            _ => {
                self.fresh_count += 1;
                // First-round jobs share one compiler seed across workload
                // seeds, so the quality figures read the same on every run.
                let seed = if first {
                    programs::COMPILER_SEED
                } else {
                    self.rng.next_u64()
                };
                (
                    JobSpec {
                        class: Class::Fresh,
                        base,
                        kmax: 4,
                        seed,
                    },
                    None,
                )
            }
        }
    }
}

/// The configuration of a job: its base's (with `PROBE_WORKERS` probe
/// workers) under the job's compiler seed and K_max.
fn job_config(bases: &[Program], spec: &JobSpec) -> DcMbqcConfig {
    programs::with_kmax(
        &bases[spec.base].config.clone().with_seed(spec.seed),
        spec.kmax,
    )
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    rounds: u64,
    samples: Vec<(Class, usize, f64)>,
    done: Vec<Done>,
    first: BTreeMap<usize, DistributedSchedule>,
}

fn drive(
    client_id: usize,
    client: &mut Client,
    bases: &[Program],
    patterns: &[Pattern],
    rng: Rng,
    start: Instant,
    seconds: f64,
) -> ClientLog {
    let mut stream = Stream::new(rng, client_id, bases.len());
    let mut log = ClientLog::default();
    let (min_cold, min_warm) = (
        crate::compile::min_samples(COLD_TAIL).div_ceil(CLIENTS),
        crate::compile::min_samples(WARM_TAIL).div_ceil(CLIENTS),
    );
    loop {
        if stream.at_round_end() && start.elapsed().as_secs_f64() >= seconds {
            let count = |c: Class| log.samples.iter().filter(|s| s.0 == c).count();
            if count(Class::Fresh) >= min_cold && count(Class::Repeat) >= min_warm {
                log.rounds = stream.rounds;
                break;
            }
        }
        let (spec, target) = stream.next(&mut log.done);
        log.attempted += 1;
        let config = job_config(bases, &spec);
        let pattern = &patterns[spec.base];
        let t = Instant::now();
        let result = remote_compile(client, pattern, &config);
        let latency = ms(t.elapsed());
        let outcome = result.and_then(|s| {
            let fingerprint = Fingerprint::of(&s.to_bytes());
            match target {
                Some(i) if log.done[i].fingerprint != fingerprint => {
                    Err("(f) repeat differs from the job's first result".to_string())
                }
                Some(_) => Ok(()),
                None => {
                    let (decoded, _) = decode_timed(&s)?;
                    check_schedule(&s, &decoded, pattern, &config)?;
                    let variants_left = if spec.class == Class::Fresh {
                        VARIANT_KMAX.to_vec()
                    } else {
                        Vec::new()
                    };
                    log.done.push(Done {
                        spec,
                        fingerprint,
                        variants_left,
                    });
                    if spec.class == Class::Fresh && spec.seed == programs::COMPILER_SEED {
                        log.first.insert(spec.base, s);
                    }
                    Ok(())
                }
            }
        });
        match outcome {
            Ok(()) => log.samples.push((spec.class, spec.base, latency)),
            Err(e) => {
                log.failed += 1;
                eprintln!("client {client_id} {} {spec:?}: {e}", bases[spec.base].name);
            }
        }
    }
    log
}

/// In-process `compile_pattern` of one job: the oracle of check (f).
fn oracle(pattern: &Pattern, config: &DcMbqcConfig) -> Result<DistributedSchedule, String> {
    guarded(|| {
        CompileSession::new(config.clone())
            .with_map_workers(MAP_WORKERS)
            .compile_pattern(pattern)
            .map_err(|e| e.to_string())
    })
}

/// Check (f): every distinct job's remote result equals the in-process
/// `compile_pattern` of the same (pattern, config). Runs after the
/// timed window on two threads; returns the number of mismatches and
/// the number of jobs whose oracle hit the known α-probing fault.
///
/// That fault strikes only some compiler seeds, so how often it shows
/// depends on the workload seed; a job it hits is compared with the
/// one-probe-worker compile the service itself runs, and the hit is
/// tallied apart from the failed operations. The fault is counted as
/// failed by `known_fault_ops`, on a fixed job.
fn verify_in_process(bases: &[Program], patterns: &[Pattern], done: &[Done]) -> (u64, u64) {
    let next = AtomicUsize::new(0);
    let work = || {
        let (mut bad, mut faults) = (0u64, 0u64);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(d) = done.get(i) else {
                return (bad, faults);
            };
            let config = job_config(bases, &d.spec);
            let pattern = &patterns[d.spec.base];
            let mut local = oracle(pattern, &config);
            if local.as_ref().is_err_and(|e| e.contains(ALPHA_FAULT)) {
                faults += 1;
                eprintln!(
                    "(f) {} {:?}: two-probe oracle hit the α-probing fault",
                    bases[d.spec.base].name, d.spec
                );
                local = oracle(pattern, &config.with_probe_workers(1));
            }
            match local {
                Ok(s) if Fingerprint::of(&s.to_bytes()) == d.fingerprint => {}
                other => {
                    bad += 1;
                    let why = other.err().unwrap_or_else(|| "result differs".into());
                    eprintln!("(f) {} {:?}: {why}", bases[d.spec.base].name, d.spec);
                }
            }
        }
    };
    std::thread::scope(|s| {
        let h = s.spawn(work);
        let (bad, faults) = work();
        let (h_bad, h_faults) = h.join().expect("verifier thread");
        (bad + h_bad, faults + h_faults)
    })
}

/// The operation that ends every client round: the known-fault job
/// compiled in process with two probe workers must equal its
/// one-probe-worker compile. Returns how many of `rounds` such
/// operations failed.
fn known_fault_ops(bases: &[Program], patterns: &[Pattern], rounds: u64) -> u64 {
    let b = bases
        .iter()
        .position(|p| p.name == FAULT_BASE)
        .expect("the known-fault base is a mix base");
    let config = bases[b].config.clone().with_seed(FAULT_SEED);
    let reference = oracle(&patterns[b], &config.clone().with_probe_workers(1));
    // Each failure panics; one line says why instead of one per round.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failed = 0;
    let mut last_err = None;
    for _ in 0..rounds {
        match (oracle(&patterns[b], &config), &reference) {
            (Ok(s), Ok(r)) if s == *r => {}
            (Ok(_), _) => failed += 1,
            (Err(e), _) => {
                failed += 1;
                last_err = Some(e);
            }
        }
    }
    std::panic::set_hook(hook);
    if failed > 0 {
        eprintln!(
            "known fault: {failed} of {rounds} two-probe compiles of {FAULT_BASE} \
             (compiler seed {FAULT_SEED}) failed: {}",
            last_err.unwrap_or_else(|| "result differs".into())
        );
    }
    failed
}

pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Outcome {
    // Set-up: generate and transpile the base programs, start the
    // service with a fresh disk tier and its TCP front door, connect
    // the clients.
    let mut setup = Vec::new();
    let mut set_up = || {
        let t = Instant::now();
        let bases = programs::mix_bases();
        let patterns: Vec<Pattern> = bases.iter().map(|p| transpile(&p.circuit)).collect();
        let warm = compile_circuit(&bases[0].circuit, &bases[0].config).expect("set-up compile");
        let front = Front::start(&scratch.join("mix"), MEMORY_BUDGET).expect("service starts");
        let clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(front.addr()).expect("client connects"))
            .collect();
        setup.push(t.elapsed().as_secs_f64());
        drop(warm);
        (bases, patterns, clients, front)
    };
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        ready = Some(set_up());
    }
    let (bases, patterns, mut clients, front) = ready.expect("set up at least once");

    let mut rng = Rng::seed_from_u64(seed);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (bases, patterns, rng) = (&bases, &patterns, rng.fork());
                s.spawn(move || drive(c, client, bases, patterns, rng, start, seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mib();
    let stats = front.service.stats();

    let rounds: u64 = logs.iter().map(|l| l.rounds).sum();
    let mut attempted: u64 = logs.iter().map(|l| l.attempted).sum::<u64>() + rounds;
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    let samples: Vec<(Class, usize, f64)> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let class_ms = |c: Class| {
        samples
            .iter()
            .filter(|s| s.0 == c)
            .map(|s| s.2)
            .collect::<Vec<_>>()
    };
    let (cold, warm, reentry) = (
        class_ms(Class::Fresh),
        class_ms(Class::Repeat),
        class_ms(Class::Variant),
    );
    let first: BTreeMap<usize, DistributedSchedule> =
        logs.iter().flat_map(|l| l.first.clone()).collect();
    let done: Vec<Done> = logs.iter().flat_map(|l| l.done.iter().cloned()).collect();
    eprintln!(
        "{} jobs in {window:.1} s: {} fresh, {} repeat, {} variant; {} distinct",
        samples.len(),
        cold.len(),
        warm.len(),
        reentry.len(),
        done.len()
    );

    let mut m = Metrics::default();
    if trace {
        service_layers(&stats, &mut m);
        if let Err(e) = mix_layers(
            &bases,
            &patterns,
            &first,
            &front,
            &mut clients[0],
            scratch,
            &mut m,
        ) {
            attempted += 1;
            failed += 1;
            eprintln!("layer probe: {e}");
        }
    } else {
        let nodes: f64 = samples
            .iter()
            .map(|s| patterns[s.1].node_count() as f64)
            .sum();
        // Per base program, the median latency of one class.
        let per_base = |c: Class| -> Vec<f64> {
            (0..bases.len())
                .map(|b| {
                    let v: Vec<f64> = samples
                        .iter()
                        .filter(|s| s.0 == c && s.1 == b)
                        .map(|s| s.2)
                        .collect();
                    median(&v)
                })
                .collect()
        };
        let per_base_cold = per_base(Class::Fresh);
        println!(
            "{:<16} {:>7} {:>9} {:>11} {:>10} {:>8}",
            "program", "nodes", "lifetime", "exec_layers", "cut_edges", "cold_ms"
        );
        for (b, s) in &first {
            println!(
                "{:<16} {:>7} {:>9} {:>11} {:>10} {:>8.2}",
                bases[*b].name,
                patterns[*b].node_count(),
                s.required_photon_lifetime(),
                s.execution_time(),
                s.cut_edges(),
                per_base_cold[*b]
            );
        }
        let lifetimes: Vec<f64> = first
            .values()
            .map(|s| s.required_photon_lifetime() as f64)
            .collect();
        let layers: Vec<f64> = first.values().map(|s| s.execution_time() as f64).collect();
        m.put("peak_rss_mb", peak_rss, "MiB");
        m.put("compile_ms_geomean", geomean(&per_base_cold), "ms");
        m.put("knodes_per_s", nodes / 1e3 / window, "knodes/s");
        m.put("lifetime_geomean", geomean(&lifetimes), "cycles");
        m.put("exec_layers_geomean", geomean(&layers), "layers");
        m.put("jobs_per_s", samples.len() as f64 / window, "1/s");
        // Every round holds equally many jobs of each base per class, so a
        // pooled median can fall in the gap between two bases' clusters;
        // the median of per-base medians does not.
        m.put("cold_ms_p50", median(&per_base_cold), "ms");
        m.put("cold_ms_tail", quantile(&cold, COLD_TAIL), "ms");
        m.put("warm_ms_p50", median(&per_base(Class::Repeat)), "ms");
        m.put("warm_ms_tail", quantile(&warm, WARM_TAIL), "ms");
        m.put("reentry_ms_p50", median(&per_base(Class::Variant)), "ms");
    }
    drop(clients);
    drop(front);

    let (mismatches, faults) = verify_in_process(&bases, &patterns, &done);
    println!(
        "check (f): {mismatches} mismatches over {} distinct jobs; {faults} two-probe \
         oracles hit the known α-probing fault (not counted as failed: seed-dependent)",
        done.len()
    );
    failed += mismatches + known_fault_ops(&bases, &patterns, rounds);
    if !trace {
        // As many set-ups again, half a minute and more after the first
        // ones, so `setup_s` samples the machine at both ends of the run.
        for _ in 0..SETUP_REPS {
            drop(set_up());
        }
        m.put("setup_s", median(&setup), "s");
    }
    Outcome {
        metrics: m,
        attempted,
        failed,
    }
}

/// Rounds of traced and untraced compiles per base job in the traced run.
const LAYER_REPS: usize = 3;

/// The pipeline, codec, store and wire layers on the mix's base jobs
/// (each base program under its first-round configuration): stage
/// spans from traced compiles alternated with untraced ones (their
/// difference is the tracing overhead), then the artifact layers and
/// the network's share of a warm hit on the live front door.
#[allow(clippy::too_many_arguments)]
fn mix_layers(
    bases: &[Program],
    patterns: &[Pattern],
    first: &BTreeMap<usize, DistributedSchedule>,
    front: &Front,
    client: &mut Client,
    scratch: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let configs: Vec<(usize, DcMbqcConfig)> = first
        .keys()
        .map(|&base| {
            let spec = JobSpec {
                class: Class::Fresh,
                base,
                kmax: 4,
                seed: programs::COMPILER_SEED,
            };
            (base, job_config(bases, &spec))
        })
        .collect();
    let mut stages = StageSamples::default();
    let (mut untraced, mut traced) = (0.0, 0.0);
    for _ in 0..LAYER_REPS {
        for (b, config) in &configs {
            let u = guarded(|| compile_circuit(&bases[*b].circuit, config))?;
            let t = guarded(|| traced_compile(&bases[*b].circuit, config, MAP_WORKERS))?;
            if u.schedule != first[b] || t.schedule != first[b] {
                return Err(format!(
                    "(f) {}: in-process compile differs from the remote result",
                    bases[*b].name
                ));
            }
            untraced += u.compile.as_secs_f64();
            traced += t.compile.as_secs_f64();
            stages.add(&bases[*b].name, &t);
        }
    }
    stages.report(m);
    let artifacts: Vec<Artifact<'_>> = configs
        .iter()
        .map(|(b, config)| Artifact {
            pattern: &patterns[*b],
            config,
            schedule: &first[b],
        })
        .collect();
    artifact_layers(&artifacts, &scratch.join("store"), m)?;
    let jobs: Vec<_> = artifacts
        .iter()
        .map(|a| (a.pattern, a.config, a.schedule))
        .collect();
    m.put(
        "net.overhead_ms_p50",
        net_overhead_ms(front, client, &jobs, 3)?,
        "ms",
    );
    m.put(
        "trace.overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    Ok(())
}
