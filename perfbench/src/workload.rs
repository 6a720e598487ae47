//! The three workloads and their inputs, all generated from the
//! benchmark seed. The program under test only ever sees the generated
//! netlists and constraints.

use milo_circuits::{
    fsm_bank, high_fanout, pipelined_datapath, random_control, random_logic, reconvergent_ladder,
};
use milo_core::netlist::Netlist;
use milo_core::techmap::{ecl_library, TechLibrary};
use milo_core::timing::{analyze, statistics};
use milo_core::{emit_netlist, parse_netlist, Constraints};

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// One 10k-gate random control block, gate-level, unconstrained.
    Ctrl10k,
    /// Five zoo designs, each under a delay target of 0.7x its
    /// unoptimized mapped delay.
    TimedMix,
    /// A closed loop of clients against an in-process `milo-serve`.
    ServeMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Ctrl10k, Workload::TimedMix, Workload::ServeMix];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ctrl10k => "ctrl10k",
            Workload::TimedMix => "timed-mix",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale. `Tiny` keeps every code path but shrinks every design,
/// for the self-tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// One design handed to the flow, with the constraints it runs under.
#[derive(Clone)]
pub struct Case {
    /// The entry netlist, as text.
    pub text: String,
    /// The entry netlist (`text` parsed).
    pub design: Netlist,
    /// The user constraints.
    pub constraints: Constraints,
    /// Whether the design holds state (the output check then clocks it).
    pub sequential: bool,
}

/// `design` as a client sends it (`emit_netlist` text) and as the
/// service parses that text. The flow workloads run on the parsed form
/// too, so an offline flow and a served job of the same case start from
/// the same netlist.
pub fn round_trip(design: &Netlist) -> Result<(String, Netlist), String> {
    let text = emit_netlist(design).map_err(|e| format!("emit {}: {e}", design.name))?;
    let parsed = parse_netlist(&text).map_err(|e| format!("parse {}: {e}", design.name))?;
    Ok((text, parsed))
}

/// The target library every workload synthesizes into.
pub fn library() -> TechLibrary {
    ecl_library()
}

/// SplitMix64: the benchmark's own deterministic generator, so seeds
/// mean the same thing whatever the program's RNG does.
#[derive(Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The worst mapped delay and area of the unoptimized elaboration.
pub fn unoptimized_delay_area(lib: &TechLibrary, design: &Netlist) -> Result<(f64, f64), String> {
    let base = crate::check::reference(lib, design)?;
    let delay = analyze(&base)
        .map_err(|e| format!("{}: timing analysis failed: {e}", design.name))?
        .worst_delay();
    let area = statistics(&base)
        .map_err(|e| format!("{}: statistics failed: {e}", design.name))?
        .area;
    Ok((delay, area))
}

/// The `ctrl10k` input: `random_control(10_000, 24, seed)`, unconstrained.
pub fn ctrl10k_cases(size: Size, seed: u64) -> Result<Vec<Case>, String> {
    let design = match size {
        Size::Full => random_control(10_000, 24, seed),
        Size::Tiny => random_control(200, 10, seed),
    };
    let (text, design) = round_trip(&design)?;
    Ok(vec![Case {
        text,
        design,
        constraints: Constraints::none(),
        sequential: false,
    }])
}

/// The `timed-mix` inputs: five zoo families, two instances each (the
/// seed, and the seed with bit 32 set), each with `max_delay` set to 0.7x
/// its unoptimized mapped delay.
pub fn timed_mix_cases(lib: &TechLibrary, size: Size, seed: u64) -> Result<Vec<Case>, String> {
    let mut designs: Vec<(Netlist, bool)> = Vec::new();
    for s in [seed, seed ^ (1 << 32)] {
        designs.extend(match size {
            Size::Full => [
                (pipelined_datapath(16, 8, s), true),
                (reconvergent_ladder(300, s), false),
                (random_control(1000, 16, s), false),
                (high_fanout(300, s), false),
                (fsm_bank(64, 3, s), true),
            ],
            Size::Tiny => [
                (pipelined_datapath(2, 4, s), true),
                (reconvergent_ladder(12, s), false),
                (random_control(80, 8, s), false),
                (high_fanout(24, s), false),
                (fsm_bank(2, 2, s), true),
            ],
        });
    }
    designs
        .into_iter()
        .enumerate()
        .map(|(i, (mut design, sequential))| {
            design.name = format!("{}_{}", design.name, i / 5);
            let (text, design) = round_trip(&design)?;
            let (delay, _) = unoptimized_delay_area(lib, &design)?;
            Ok(Case {
                text,
                constraints: Constraints::none().with_max_delay(0.7 * delay),
                design,
                sequential,
            })
        })
        .collect()
}

/// One distinct design of the `serve-mix` pool, as a client sends it.
pub struct PoolDesign {
    /// The design text on the wire (`emit_netlist` output).
    pub text: String,
    /// The design as the service parses it back.
    pub parsed: Netlist,
    /// Whether the design holds state.
    pub sequential: bool,
    /// Delay target of its first submission: 0.9x unoptimized delay.
    pub max_delay: f64,
    /// Unoptimized mapped area, the scale for near-miss `max_area`s.
    pub base_area: f64,
}

/// How the service is expected to answer a job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobKind {
    /// First sight of the design: a cache miss.
    First,
    /// The same design and constraints again: an exact hit.
    Exact,
    /// Same design and delay target, another `max_area`: a prefix hit.
    NearMiss,
}

/// One job of the closed loop: which (design, constraints) pair it
/// submits.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Index into [`ServePlan::pairs`].
    pub pair: usize,
    /// The cache tier the job was drawn for.
    pub kind: JobKind,
}

/// A (design, constraints) pair the closed loop submits.
#[derive(Clone)]
pub struct Pair {
    /// Index into [`ServePlan::pool`].
    pub design: usize,
    /// The submitted constraints.
    pub constraints: Constraints,
}

/// The whole `serve-mix` input: design pool, distinct pairs, and one
/// job list per client connection.
pub struct ServePlan {
    /// Distinct designs (deduplicated by structural hash).
    pub pool: Vec<PoolDesign>,
    /// Distinct (design, constraints) pairs, in order of first use.
    pub pairs: Vec<Pair>,
    /// The jobs of each connection, in submission order.
    pub connections: Vec<Vec<Job>>,
}

impl ServePlan {
    /// Total jobs over all connections.
    pub fn jobs(&self) -> usize {
        self.connections.iter().map(Vec::len).sum()
    }
}

/// Blocks of six pool designs, one per zoo family; block `b` gets size
/// position `b` of each family's range, so the pool's total work barely
/// depends on the seed.
const POOL_BLOCKS: u64 = 20;

fn pool_design(family: u64, block: u64, seed: u64) -> (Netlist, bool) {
    let block = block % POOL_BLOCKS;
    let at = |lo: u64, hi: u64| (lo + (hi - lo) * block / (POOL_BLOCKS - 1)) as usize;
    match family {
        0 => (random_control(at(60, 300), at(6, 10), seed), false),
        1 => (random_logic(at(40, 160), at(6, 10), seed), false),
        2 => (
            pipelined_datapath(1 + (block % 3) as usize, 2 + ((block / 3) % 3) as u8, seed),
            true,
        ),
        3 => (
            fsm_bank(
                1 + (block % 4) as usize,
                1 + ((block / 4) % 3) as usize,
                seed,
            ),
            true,
        ),
        4 => (high_fanout(at(16, 48), seed), false),
        _ => (reconvergent_ladder(at(6, 24), seed), false),
    }
}

/// Builds the `serve-mix` input for `connections` client connections.
///
/// Each connection owns its own slice of the pool, so a resubmission
/// always follows its first sight on the same blocking connection and
/// the cache outcome of every job is fixed by the seed. About 10% of
/// jobs are first sights, 15% near misses and 75% exact repeats.
pub fn serve_plan(
    lib: &TechLibrary,
    size: Size,
    seed: u64,
    connections: usize,
) -> Result<ServePlan, String> {
    let connections = connections.max(1);
    let (blocks, jobs_per_conn) = match size {
        Size::Full => (POOL_BLOCKS.max(connections as u64), 1200 / connections),
        Size::Tiny => (connections as u64, 30),
    };
    let mut rng = SplitMix(seed ^ 0x5e7e_a11c_e5ee_d000);
    let mut pool = Vec::new();
    let mut owner = Vec::new();
    let mut seen_hashes = std::collections::HashSet::new();
    for block in 0..blocks {
        for family in 0..6 {
            // Retry with another generator seed if the design repeats one
            // already in the pool (tiny designs can).
            for attempt in 0u64.. {
                let gen_seed = seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add(block * 6 + family)
                    .wrapping_add(attempt << 32);
                let (mut design, sequential) = pool_design(family, block, gen_seed);
                design.name = format!("{}_b{block}", design.name);
                let (text, parsed) = round_trip(&design)?;
                if !seen_hashes.insert(milo_core::netlist::structural_hash(&parsed)) {
                    continue;
                }
                let (delay, base_area) = unoptimized_delay_area(lib, &parsed)?;
                pool.push(PoolDesign {
                    text,
                    parsed,
                    sequential,
                    max_delay: 0.9 * delay,
                    base_area,
                });
                owner.push(block as usize % connections);
                break;
            }
        }
    }

    let mut pairs: Vec<Pair> = Vec::new();
    let mut pair_index = std::collections::HashMap::new();
    let mut intern = |design: usize, constraints: Constraints| -> usize {
        let key = (design, constraints.cache_summary());
        *pair_index.entry(key).or_insert_with(|| {
            pairs.push(Pair {
                design,
                constraints,
            });
            pairs.len() - 1
        })
    };
    let mut plan_connections = Vec::new();
    for c in 0..connections {
        let owned: Vec<usize> = (0..pool.len()).filter(|&i| owner[i] == c).collect();
        let mut seen_designs: Vec<usize> = Vec::new();
        let mut seen_pairs: Vec<usize> = Vec::new();
        let mut jobs = Vec::with_capacity(jobs_per_conn);
        for j in 0..jobs_per_conn {
            let unseen = owned.len() - seen_designs.len();
            let first = seen_designs.is_empty()
                || (unseen > 0 && rng.unit() < unseen as f64 / (jobs_per_conn - j) as f64);
            let job = if first {
                let d = owned[seen_designs.len()];
                seen_designs.push(d);
                let p = intern(d, Constraints::none().with_max_delay(pool[d].max_delay));
                seen_pairs.push(p);
                Job {
                    pair: p,
                    kind: JobKind::First,
                }
            } else if rng.unit() < 1.0 / 6.0 {
                let d = seen_designs[rng.range(0, seen_designs.len() as u64 - 1) as usize];
                let factor = [0.8, 0.9, 1.0, 1.1, 1.2][rng.range(0, 4) as usize];
                let p = intern(
                    d,
                    Constraints::none()
                        .with_max_delay(pool[d].max_delay)
                        .with_max_area(factor * pool[d].base_area),
                );
                let kind = if seen_pairs.contains(&p) {
                    JobKind::Exact
                } else {
                    seen_pairs.push(p);
                    JobKind::NearMiss
                };
                Job { pair: p, kind }
            } else {
                let p = seen_pairs[rng.range(0, seen_pairs.len() as u64 - 1) as usize];
                Job {
                    pair: p,
                    kind: JobKind::Exact,
                }
            };
            jobs.push(job);
        }
        plan_connections.push(jobs);
    }
    Ok(ServePlan {
        pool,
        pairs,
        connections: plan_connections,
    })
}
