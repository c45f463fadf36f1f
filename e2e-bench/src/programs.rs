//! Workload inputs: the paper's benchmark programs and hardware.
//!
//! Everything here is derived from the workload seed; the compiler
//! sees only the circuits, patterns and configurations built here.

use dc_mbqc::DcMbqcConfig;
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_circuit::Circuit;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};

/// Master compiler seed of the compile workloads (the paper harness's
/// seed). Held fixed so a workload seed changes only the generated
/// inputs and their order, never the compiler's own random choices.
pub const COMPILER_SEED: u64 = 2026;

/// Worker counts, pinned so every threaded path runs on any host and
/// no count depends on the machine (`0 = auto` is never used).
pub const PROBE_WORKERS: usize = 2;
/// Mapping-stage workers per compile.
pub const MAP_WORKERS: usize = 2;
/// Service worker threads.
pub const SERVICE_WORKERS: usize = 2;

/// The paper's two hardware settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// Table III: 4 QPUs, 5-star resource states.
    Three,
    /// Table IV (and Figure 10): 8 QPUs, 4-ring resource states.
    Four,
}

impl Table {
    fn label(self) -> &'static str {
        match self {
            Table::Three => "T3",
            Table::Four => "T4",
        }
    }
}

/// The pipeline configuration for an `n`-qubit program on `table`
/// hardware with connection capacity `kmax` and master seed `seed`:
/// α_max 1.5, BDIR on, worker counts pinned.
pub fn config(table: Table, n: usize, kmax: usize, seed: u64) -> DcMbqcConfig {
    let (qpus, rsg) = match table {
        Table::Three => (4, ResourceStateKind::FIVE_STAR),
        Table::Four => (8, ResourceStateKind::FOUR_RING),
    };
    let hw = DistributedHardware::builder()
        .num_qpus(qpus)
        .grid_width(bench::grid_size_for(n))
        .resource_state(rsg)
        .kmax(kmax)
        .build();
    DcMbqcConfig::new(hw)
        .with_seed(seed)
        .with_alpha_max(1.5)
        .with_probe_workers(PROBE_WORKERS)
        .with_batch_workers(2)
}

/// `config` with connection capacity `kmax` (a Figure 8 sweep point).
pub fn with_kmax(config: &DcMbqcConfig, kmax: usize) -> DcMbqcConfig {
    let hw = config.hardware;
    let mut out = config.clone();
    out.hardware = DistributedHardware::builder()
        .num_qpus(hw.num_qpus())
        .grid_width(hw.grid_width())
        .resource_state(hw.resource_state())
        .kmax(kmax)
        .topology(hw.topology())
        .build();
    out
}

/// One benchmark program: a circuit plus the configuration it is
/// compiled under.
#[derive(Debug, Clone)]
pub struct Program {
    /// Display name, e.g. `QFT-100/T4`.
    pub name: String,
    /// The input circuit.
    pub circuit: Circuit,
    /// The pipeline configuration.
    pub config: DcMbqcConfig,
}

impl Program {
    /// Builds the program; `circuit_seed` instantiates the randomized
    /// families (VQE angles, the QAOA Max-Cut graph and angles).
    pub fn new(
        kind: BenchmarkKind,
        n: usize,
        table: Table,
        circuit_seed: u64,
        compiler_seed: u64,
    ) -> Self {
        Program {
            name: format!("{kind}-{n}/{}", table.label()),
            circuit: kind.generate(n, circuit_seed),
            config: config(table, n, 4, compiler_seed),
        }
    }
}

/// Figure 10's QFT sizes.
pub const QFT_LADDER: [usize; 7] = [16, 25, 36, 49, 64, 81, 100];

/// Figure 10: QFT at every ladder size on Table IV hardware.
pub fn qft_ladder() -> Vec<Program> {
    QFT_LADDER
        .iter()
        .map(|&n| Program::new(BenchmarkKind::Qft, n, Table::Four, 0, COMPILER_SEED))
        .collect()
}

/// Tables III/IV: VQE, QAOA and RCA at every paper size on both
/// hardware settings; `seed` instantiates the randomized families.
pub fn paper_families(seed: u64) -> Vec<Program> {
    let mut out = Vec::new();
    for table in [Table::Three, Table::Four] {
        for kind in [BenchmarkKind::Vqe, BenchmarkKind::Qaoa, BenchmarkKind::Rca] {
            for &n in kind.paper_sizes() {
                out.push(Program::new(kind, n, table, seed, COMPILER_SEED));
            }
        }
    }
    out
}

/// The service mix's base programs: the two smallest paper sizes of
/// each family on both hardware settings. Their circuits are fixed; the
/// workload seed drives the job stream, and every job brings its own
/// compiler seed.
pub fn mix_bases() -> Vec<Program> {
    let mut out = Vec::new();
    for table in [Table::Three, Table::Four] {
        for kind in BenchmarkKind::all() {
            for &n in &kind.paper_sizes()[..2] {
                out.push(Program::new(kind, n, table, COMPILER_SEED, COMPILER_SEED));
            }
        }
    }
    out
}
