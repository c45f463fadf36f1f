//! Output checks, run outside every timed window on each compiled
//! schedule. They recompute from the schedule's raw start times and
//! the pattern graph rather than trusting the compiler's own
//! feasibility and cost routines.

use dc_mbqc::{DcMbqcConfig, DistributedSchedule};
use mbqc_pattern::Pattern;

/// Checks (a)–(d) of a compiled schedule for `pattern` under `config`,
/// and (e) that `decoded` — the validated decode of the schedule's
/// encoding — equals it.
pub fn check_schedule(
    s: &DistributedSchedule,
    decoded: &DistributedSchedule,
    pattern: &Pattern,
    config: &DcMbqcConfig,
) -> Result<(), String> {
    let k = config.hardware.num_qpus();
    let kmax = config.hardware.kmax();
    let part = s.partition();

    // (a) one part per QPU; every pattern node assigned to one of them.
    if part.k() != k {
        return Err(format!("(a) partition has {} parts for {k} QPUs", part.k()));
    }
    if part.len() != pattern.node_count() {
        return Err(format!(
            "(a) partition covers {} of {} nodes",
            part.len(),
            pattern.node_count()
        ));
    }
    if let Some(bad) = part.assignment().iter().find(|&&p| p >= k) {
        return Err(format!("(a) node assigned to part {bad} of {k}"));
    }

    // (b) one sync task per cut edge, cut edges counted here.
    let cut = pattern
        .graph()
        .edges()
        .filter(|&(u, v, _)| part.part_of(u) != part.part_of(v))
        .count();
    let problem = s.problem();
    if problem.sync_tasks.len() != cut || s.cut_edges() != cut {
        return Err(format!(
            "(b) {} sync tasks ({} reported cut edges) for {cut} cut edges",
            problem.sync_tasks.len(),
            s.cut_edges()
        ));
    }

    // (c) feasibility from the start times.
    let sched = s.schedule();
    let layers = s.per_qpu_layers();
    if sched.main_start.len() != k || layers.len() != k || problem.main_counts != layers {
        return Err("(c) per-QPU shapes disagree".into());
    }
    if sched.sync_start.len() != problem.sync_tasks.len() {
        return Err("(c) sync start count disagrees".into());
    }
    let horizon = sched
        .main_start
        .iter()
        .flatten()
        .chain(&sched.sync_start)
        .max()
        .map_or(0, |&t| t + 1);
    // occupancy[q][t] = (main tasks, syncs) in slot t of QPU q.
    let mut occupancy = vec![vec![(0u32, 0usize); horizon]; k];
    for (q, starts) in sched.main_start.iter().enumerate() {
        if starts.len() != layers[q] {
            return Err(format!(
                "(c) QPU {q}: {} main tasks, {} layers",
                starts.len(),
                layers[q]
            ));
        }
        if starts.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("(c) QPU {q}: main tasks not strictly increasing"));
        }
        for &t in starts {
            occupancy[q][t].0 += 1;
        }
    }
    for (task, &t) in problem.sync_tasks.iter().zip(&sched.sync_start) {
        let (qa, ja) = task.a;
        let (qb, jb) = task.b;
        if qa == qb || qa >= k || qb >= k || ja >= layers[qa] || jb >= layers[qb] {
            return Err("(c) malformed sync endpoint".into());
        }
        occupancy[qa][t].1 += 1;
        occupancy[qb][t].1 += 1;
    }
    for (q, slots) in occupancy.iter().enumerate() {
        for (t, &(mains, syncs)) in slots.iter().enumerate() {
            if mains > 0 && syncs > 0 {
                return Err(format!("(c) QPU {q} slot {t} holds a main task and a sync"));
            }
            if syncs > kmax {
                return Err(format!(
                    "(c) QPU {q} slot {t} holds {syncs} syncs > K_max {kmax}"
                ));
            }
        }
    }

    // (d) makespan, τ_remote and lifetime, recomputed.
    if horizon != s.execution_time() {
        return Err(format!(
            "(d) makespan {horizon} != reported {}",
            s.execution_time()
        ));
    }
    let tau_remote = problem
        .sync_tasks
        .iter()
        .zip(&sched.sync_start)
        .flat_map(|(task, &t)| {
            [task.a, task.b]
                .into_iter()
                .map(move |(q, j)| t.abs_diff(sched.main_start[q][j]))
        })
        .max()
        .unwrap_or(0);
    if tau_remote != s.tau_remote() {
        return Err(format!(
            "(d) tau_remote {tau_remote} != reported {}",
            s.tau_remote()
        ));
    }
    if s.required_photon_lifetime() != s.tau_local().max(s.tau_remote()) {
        return Err("(d) lifetime != max(tau_local, tau_remote)".into());
    }

    // (e) the validated codec round trip is lossless.
    if decoded != s {
        return Err("(e) from_bytes(to_bytes()) differs from the schedule".into());
    }
    Ok(())
}
