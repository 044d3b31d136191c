//! Seeded input generation for the three workloads.
//!
//! The program under test only ever sees what these functions return:
//! scenario-spec text for the two spec workloads, a fault list for the
//! coverage campaign. The same seed always gives byte-identical inputs.

use esram_diag::{ShardPlan, Soc};
use fault_models::{FaultList, MemoryFault};
use sram_model::cell::CellCoord;
use sram_model::{Address, CellFault, CellNode, CouplingKind, DecoderFault, DecoderFaultKind, MemConfig};
use std::collections::HashSet;

/// SplitMix64: a tiny, well-mixed generator whose output sequence is
/// fixed by this file, so generated inputs never drift with a
/// dependency's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload: the benchmark seed mixed with the
    /// workload's own stream tag, so workloads never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        // 128-bit multiply-shift: bias below 2^-64 per draw.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Spec seeds must fit a TOML integer; masking keeps small benchmark
/// seeds (42 in particular) unchanged.
fn spec_seed(seed: u64) -> u64 {
    seed & 0x3FFF_FFFF_FFFF_FFFF
}

/// The paper's Sec. 4.2 case study, shaped like
/// `examples/case_study_512x100.toml`: four 512×100 e-SRAMs, 1 %
/// stuck-at + transition defects, the fast scheme without DRF work.
/// Seed 42 reproduces the checked-in spec.
pub fn case_study_spec(seed: u64) -> String {
    format!(
        "[scenario]\n\
         name = \"case_study_512x100\"\n\
         seed = {}\n\
         \n\
         [[memory]]\n\
         count = 4\n\
         words = 512\n\
         width = 100\n\
         \n\
         [defects]\n\
         rate = 0.01\n\
         classes = [\"stuck-at\", \"transition\"]\n\
         \n\
         [scheme]\n\
         kind = \"fast\"\n\
         clock_ns = 10.0\n\
         drf = \"none\"\n",
        spec_seed(seed)
    )
}

/// Memory groups of one sparse-fleet SoC: many small e-SRAMs of mixed
/// geometry.
pub const SPARSE_GROUPS: [(usize, u64, usize); 2] = [(24, 64, 16), (8, 256, 32)];

/// Defect rate of every sparse-fleet SoC. Rounding the expected defect
/// count per memory leaves the 64×16 members pristine and gives each
/// 256×32 member 3 faults.
pub const SPARSE_RATE: f64 = 0.0004;

/// SoCs (sweep seeds) per sparse-fleet pass.
pub const SPARSE_SOCS: usize = 16;

/// The paper's target traffic: a `[sweep]` of SoCs, each holding many
/// small e-SRAMs, at a low defect rate with the paper's four defect
/// classes plus data-retention faults diagnosed through NWRTM.
///
/// Address-decoder faults dominate the cost of a pass (each fails one
/// or two whole words, so scoring walks a log of many sites), and how
/// many of them a SoC draws is random. Left to chance, the scoring cost
/// of one SoC varied by about ±40 % from seed to seed (measured on SoCs
/// that also held a 512×100 member). So each sweep seed is the first
/// candidate, drawn from the benchmark seed, whose decoder faults fail
/// exactly the expected number of words in every memory group: a fifth
/// of the faults are decoder faults, a third of those fail one word and
/// the rest two, so a group with `n` faults expects `round(n / 3)`
/// failing words. The fault sites and the kinds of every other fault
/// stay random.
pub fn sparse_fleet_spec(seed: u64) -> String {
    let mut rng = Rng::new(seed, 2);
    let seeds: Vec<String> = (0..SPARSE_SOCS)
        .map(|_| stratified_sparse_seed(&mut rng).to_string())
        .collect();
    let mut text = format!(
        "[scenario]\nname = \"sparse_fleet\"\nseed = {}\n",
        spec_seed(seed)
    );
    for (count, words, width) in SPARSE_GROUPS {
        text.push_str(&format!(
            "\n[[memory]]\ncount = {count}\nwords = {words}\nwidth = {width}\n"
        ));
    }
    text.push_str(&format!(
        "\n[defects]\nrate = {SPARSE_RATE}\ndata_retention = true\n\
         \n[scheme]\nkind = \"fast\"\nclock_ns = 10.0\ndrf = \"nwrtm\"\n\
         \n[sweep]\nseeds = [{}]\n",
        seeds.join(", ")
    ));
    text
}

/// The SoC a sparse-fleet sweep seed builds, exactly as the spec
/// pipeline builds it.
fn sparse_soc(seed: u64) -> Soc {
    let mut builder = Soc::builder();
    for (count, words, width) in SPARSE_GROUPS {
        builder = builder
            .memories(count, words, width)
            .expect("fixed geometry is valid");
    }
    builder
        .defect_rate(SPARSE_RATE)
        .seed(seed)
        .with_data_retention_defects()
        .build_with(ShardPlan::sequential())
        .expect("fixed geometry is valid")
}

/// Per memory group: (faults injected, words failed by decoder faults).
fn decoder_footprint(soc: &Soc) -> Vec<(usize, usize)> {
    let mut members = soc.memories().iter();
    SPARSE_GROUPS
        .iter()
        .map(|&(count, _, _)| {
            members
                .by_ref()
                .take(count)
                .fold((0, 0), |(faults, words), memory| {
                    let failed: usize = memory
                        .injected
                        .iter()
                        .map(|fault| match fault {
                            MemoryFault::Decoder(DecoderFault {
                                kind: DecoderFaultKind::NoAccess,
                                ..
                            }) => 1,
                            MemoryFault::Decoder(_) => 2,
                            MemoryFault::Cell { .. } => 0,
                        })
                        .sum();
                    (faults + memory.injected.len(), words + failed)
                })
        })
        .collect()
}

/// Whether every group's decoder faults fail `round(n / 3)` words.
fn has_expected_footprint(soc: &Soc) -> bool {
    decoder_footprint(soc)
        .iter()
        .all(|&(faults, words)| words == (faults + 1) / 3)
}

/// About one candidate in nine matches; a run of this many misses
/// means the injector no longer draws the class mix described above.
const MAX_CANDIDATES: usize = 10_000;

fn stratified_sparse_seed(rng: &mut Rng) -> u64 {
    (0..MAX_CANDIDATES)
        .map(|_| rng.next_u64() >> 34)
        .find(|&seed| has_expected_footprint(&sparse_soc(seed)))
        .expect("a sweep seed with the expected decoder-fault footprint")
}

/// Geometry of the coverage campaign (the paper's benchmark memory).
pub fn campaign_config() -> MemConfig {
    MemConfig::date2005_benchmark()
}

/// Faults drawn per lane-batched class (stuck-at, transition,
/// data-retention, read-disturb, coupling).
pub const LANE_FAULTS_PER_CLASS: usize = 1200;

/// Stuck-open faults drawn (per-fault fallback class).
pub const STUCK_OPEN_FAULTS: usize = 36;

/// Address-decoder faults drawn (per-fault fallback class).
pub const DECODER_FAULTS: usize = 12;

/// The coverage campaign's two fault groups over the 512×100 memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Faults of the lane-batched classes, in class order.
    pub lane: FaultList,
    /// Faults of the per-fault fallback classes, in class order.
    pub fallback: FaultList,
}

impl Campaign {
    /// The whole single-fault universe: lane classes, then fallbacks.
    pub fn universe(&self) -> FaultList {
        let mut all = self.lane.clone();
        all.extend(self.fallback.iter().copied());
        all
    }
}

/// A seeded single-fault universe: distinct faults drawn uniformly
/// from each class's enumeration (cells, variants and neighbouring
/// aggressors exactly as `FaultUniverse` enumerates them) without
/// materialising the full universes.
pub fn coverage_campaign(seed: u64) -> Campaign {
    let config = campaign_config();
    let mut rng = Rng::new(seed, 3);
    let mut lane = FaultList::new();
    let lane_draws: [fn(&mut Rng, MemConfig) -> MemoryFault; 5] = [
        |rng, config| {
            let stuck = rng.coin();
            MemoryFault::cell(cell(rng, config), CellFault::StuckAt(stuck))
        },
        |rng, config| {
            let fault = if rng.coin() {
                CellFault::TransitionUp
            } else {
                CellFault::TransitionDown
            };
            MemoryFault::cell(cell(rng, config), fault)
        },
        |rng, config| {
            let node = if rng.coin() { CellNode::A } else { CellNode::B };
            MemoryFault::cell(cell(rng, config), CellFault::DataRetention { node })
        },
        |rng, config| {
            let fault = [
                CellFault::ReadDestructive,
                CellFault::DeceptiveReadDestructive,
                CellFault::IncorrectRead,
            ][rng.below(3) as usize];
            MemoryFault::cell(cell(rng, config), fault)
        },
        coupling,
    ];
    for draw in lane_draws {
        draw_distinct(&mut lane, LANE_FAULTS_PER_CLASS, || draw(&mut rng, config));
    }
    let mut fallback = FaultList::new();
    draw_distinct(&mut fallback, STUCK_OPEN_FAULTS, || {
        MemoryFault::cell(cell(&mut rng, config), CellFault::StuckOpen)
    });
    draw_distinct(&mut fallback, DECODER_FAULTS, || {
        let address = Address::new(rng.below(config.words()));
        let other = address.wrapping_next(config.words());
        let kind = [
            DecoderFaultKind::NoAccess,
            DecoderFaultKind::MapsTo(other),
            DecoderFaultKind::AlsoAccesses(other),
        ][rng.below(3) as usize];
        MemoryFault::decoder(DecoderFault::new(address, kind))
    });
    Campaign { lane, fallback }
}

fn draw_distinct(list: &mut FaultList, count: usize, mut draw: impl FnMut() -> MemoryFault) {
    let mut seen = HashSet::with_capacity(count);
    while seen.len() < count {
        let fault = draw();
        if seen.insert(fault) {
            list.push(fault);
        }
    }
}

fn cell(rng: &mut Rng, config: MemConfig) -> CellCoord {
    let address = Address::new(rng.below(config.words()));
    CellCoord::new(address, rng.below(config.width() as u64) as usize)
}

/// A coupling fault against one of the victim's neighbours (next bit
/// of the same word, or the same bit of the next word), with one of
/// the eight CFid / CFin / CFst sensitisations.
fn coupling(rng: &mut Rng, config: MemConfig) -> MemoryFault {
    loop {
        let victim = cell(rng, config);
        let aggressor = if rng.coin() {
            (victim.bit + 1 < config.width()).then(|| CellCoord::new(victim.address, victim.bit + 1))
        } else {
            (victim.address.index() + 1 < config.words())
                .then(|| CellCoord::new(Address::new(victim.address.index() + 1), victim.bit))
        };
        let Some(aggressor) = aggressor else { continue };
        let (a, b) = (rng.coin(), rng.coin());
        let kind = match rng.below(3) {
            0 => CouplingKind::Idempotent {
                aggressor_rises: a,
                forced_value: b,
            },
            1 => CouplingKind::Inversion { aggressor_rises: a },
            _ => CouplingKind::State {
                aggressor_value: a,
                forced_value: b,
            },
        };
        return MemoryFault::cell(victim, CellFault::Coupling { aggressor, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esram_diag::FleetRunner;
    use esram_spec::compile_str;

    #[test]
    fn same_seed_gives_identical_inputs_and_different_seeds_differ() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(case_study_spec(seed), case_study_spec(seed));
            assert_eq!(sparse_fleet_spec(seed), sparse_fleet_spec(seed));
            assert_eq!(coverage_campaign(seed), coverage_campaign(seed));
        }
        assert_ne!(case_study_spec(1), case_study_spec(2));
        assert_ne!(sparse_fleet_spec(1), sparse_fleet_spec(2));
        assert_ne!(coverage_campaign(1), coverage_campaign(2));
    }

    #[test]
    fn case_study_at_seed_42_compiles_to_the_checked_in_example() {
        let example = include_str!("../../examples/case_study_512x100.toml");
        assert_eq!(
            compile_str(&case_study_spec(42)).expect("generated spec compiles"),
            compile_str(example).expect("checked-in spec compiles")
        );
    }

    #[test]
    fn generated_specs_compile_to_the_intended_shape() {
        for seed in [3, 42, u64::MAX] {
            let plan = compile_str(&sparse_fleet_spec(seed)).expect("sparse fleet compiles");
            assert_eq!(plan.jobs.len(), SPARSE_SOCS);
            assert_eq!(plan.memories_per_job(), 32);
            assert!(plan
                .jobs
                .iter()
                .all(|job| job.data_retention && job.defect_rate <= 0.001));
            let jobs = crate::pipeline::fleet_jobs(&plan).expect("fast-scheme plan");
            let runner = FleetRunner::new(ShardPlan::sequential());
            let built = runner.build(&runner.plan(&jobs).unwrap()).unwrap();
            for (job, pipeline_soc) in plan.jobs.iter().zip(&built) {
                let soc = sparse_soc(job.seed);
                let faults = |soc: &Soc| -> Vec<FaultList> {
                    soc.memories()
                        .iter()
                        .map(|memory| memory.injected.clone())
                        .collect()
                };
                assert_eq!(
                    faults(&soc),
                    faults(pipeline_soc),
                    "stratified against the pipeline's own build"
                );
                assert!(has_expected_footprint(&soc));
                let faults: Vec<usize> = decoder_footprint(&soc)
                    .iter()
                    .map(|&(faults, _)| faults)
                    .collect();
                assert_eq!(faults, [0, 24]);
            }
        }
    }

    #[test]
    fn campaign_holds_distinct_faults_of_every_class() {
        let campaign = coverage_campaign(7);
        assert_eq!(campaign.lane.len(), 5 * LANE_FAULTS_PER_CLASS);
        assert_eq!(campaign.fallback.len(), STUCK_OPEN_FAULTS + DECODER_FAULTS);
        let universe = campaign.universe();
        let distinct: HashSet<_> = universe.iter().collect();
        assert_eq!(distinct.len(), universe.len());
        assert_eq!(universe.count_by_class().len(), 7);
    }
}
