//! The seeded scenario generator.
//!
//! Scenarios are drawn from a [`SplitMix64`] stream derived from the
//! campaign seed, so the same seed always produces the byte-identical
//! scenario regardless of worker count or generation order — the property
//! the CI determinism gate checks. Parameter values are sampled on a
//! coarse decimal grid inside each parameter's declared catalog range
//! ([`ats_core::catalog::ParamSpec::range_f64`]), which keeps the
//! serialized strings short and exactly round-trippable.

use crate::scenario::{Phase, Scenario, Slot, Split};
use ats_core::catalog::{self, Paradigm, ParamKind};
use ats_runtime::SplitMix64;
use std::collections::BTreeMap;

/// Knobs of the scenario generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// World size of generated scenarios.
    pub nprocs: usize,
    /// Minimum number of slots.
    pub min_slots: usize,
    /// Maximum number of slots.
    pub max_slots: usize,
    /// Maximum repetition count drawn for `r` parameters.
    pub max_reps: usize,
    /// Chance (percent) that a drawn phase is well-tuned padding.
    pub padding_percent: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            nprocs: 8,
            min_slots: 2,
            max_slots: 5,
            max_reps: 3,
            padding_percent: 30,
        }
    }
}

/// Positive properties the generator places. All 23 positive catalog
/// entries are eligible.
fn positive_names() -> Vec<&'static str> {
    catalog::CATALOG
        .iter()
        .filter(|s| s.paradigm != Paradigm::Negative)
        .map(|s| s.name)
        .collect()
}

/// Padding properties (the catalog's negative cases).
fn padding_names() -> Vec<&'static str> {
    catalog::CATALOG
        .iter()
        .filter(|s| s.paradigm == Paradigm::Negative)
        .map(|s| s.name)
        .collect()
}

/// Draw a seconds value on a `1e-4` grid inside `[lo, hi]` — short
/// decimal strings that survive the string → f64 → string round trip.
fn draw_seconds(rng: &mut SplitMix64, lo: f64, hi: f64) -> String {
    let lo_t = (lo * 1e4).ceil() as u64;
    let hi_t = (hi * 1e4).floor() as u64;
    let t = lo_t + rng.next_below(hi_t.saturating_sub(lo_t) + 1);
    format!("{}", t as f64 / 1e4)
}

/// Clamp a sampling interval to the parameter's declared catalog range.
fn clamped(spec_range: (f64, f64), lo: f64, hi: f64) -> (f64, f64) {
    let (min, max) = spec_range;
    (lo.max(min), hi.min(max).max(lo.max(min)))
}

/// Draw a distribution string. `descending` forces shapes whose values
/// never increase with the rank (what `imbalance_at_mpi_scan` needs to
/// program prefix waits).
fn draw_distr(rng: &mut SplitMix64, descending: bool) -> String {
    let low = 0.002 + rng.next_below(9) as f64 * 0.001;
    let high = low + 0.02 + rng.next_below(5) as f64 * 0.01;
    if descending {
        // Swap: the "low" key carries the larger value so early ranks are
        // the slow ones and later ranks collect prefix waits.
        return match rng.next_below(2) {
            0 => format!("block2:low={high},high={low}"),
            _ => format!("linear:low={high},high={low}"),
        };
    }
    match rng.next_below(6) {
        0 => format!("cyclic2:low={low},high={high}"),
        1 => format!("block2:low={low},high={high}"),
        2 => format!("linear:low={low},high={high}"),
        3 => format!("peak:low={low},high={high},n={}", rng.next_below(2)),
        4 => {
            let med = (low + high) / 2.0;
            format!("cyclic3:low={low},med={med},high={high}")
        }
        _ => {
            let med = (low + high) / 2.0;
            format!("block3:low={low},med={med},high={high}")
        }
    }
}

/// Draw one concrete parameter assignment for `property` on a group of
/// `group_size` ranks.
fn draw_params(
    rng: &mut SplitMix64,
    property: &str,
    group_size: usize,
    cfg: &GenConfig,
) -> BTreeMap<String, String> {
    let spec = catalog::find(property).expect("generator draws catalog names");
    let knob = spec.knob().map(|p| p.name);
    let mut out = BTreeMap::new();
    for p in spec.params {
        let value = match (p.name, p.kind) {
            ("r", _) => format!("{}", 1 + rng.next_below(cfg.max_reps as u64)),
            ("root", _) => format!("{}", rng.next_below(group_size as u64)),
            ("nthreads", _) => format!("{}", 2 + rng.next_below(3)),
            ("df", _) => draw_distr(rng, property == "imbalance_at_mpi_scan"),
            // The contention model assumes no staggering between rounds.
            ("outsidework", _) => "0".to_owned(),
            ("growth", _) => {
                let (lo, hi) = clamped(p.range_f64(), 0.1, 0.9);
                draw_seconds(rng, lo, hi)
            }
            // The knob: the programmed inefficiency magnitude.
            (name, ParamKind::Seconds) if Some(name) == knob => {
                let (lo, hi) = clamped(p.range_f64(), 0.02, 0.06);
                draw_seconds(rng, lo, hi)
            }
            // Base knobs: background work everyone does.
            (_, ParamKind::Seconds) => {
                let (lo, hi) = clamped(p.range_f64(), 0.002, 0.01);
                draw_seconds(rng, lo, hi)
            }
            (_, ParamKind::Count) => p.default.to_owned(),
            (_, ParamKind::Distribution) => draw_distr(rng, false),
        };
        out.insert(p.name.to_owned(), value);
    }
    out
}

/// Draw one phase on `group` (of `group_size` ranks).
fn draw_phase(
    rng: &mut SplitMix64,
    group: usize,
    group_size: usize,
    padding: bool,
    cfg: &GenConfig,
) -> Phase {
    let names = if padding {
        padding_names()
    } else {
        positive_names()
    };
    let property = names[rng.next_below(names.len() as u64) as usize];
    Phase {
        group,
        property: property.to_owned(),
        params: draw_params(rng, property, group_size, cfg),
    }
}

/// Draw a split the world size supports (every group keeps ≥ 2 ranks).
fn draw_split(rng: &mut SplitMix64, nprocs: usize) -> Split {
    let mut options = vec![Split::Whole, Split::Whole];
    if nprocs >= 4 {
        options.push(Split::Stride { groups: 2 });
        options.push(Split::Block { groups: 2 });
    }
    if nprocs >= 6 {
        options.push(Split::Stride { groups: 3 });
        options.push(Split::Block { groups: 3 });
    }
    options[rng.next_below(options.len() as u64) as usize]
}

/// Generate the scenario for `seed`. Same seed ⇒ byte-identical scenario.
///
/// Every scenario contains at least one positive phase and at least one
/// padding phase, so both halves of the oracle (presence and absence) are
/// always exercised.
pub fn generate(seed: u64, cfg: &GenConfig) -> Scenario {
    assert!(cfg.nprocs >= 2, "scenarios need at least 2 ranks");
    assert!(cfg.min_slots >= 1 && cfg.max_slots >= cfg.min_slots);
    let mut rng = SplitMix64::split(seed, 0);
    let num_slots =
        cfg.min_slots + rng.next_below((cfg.max_slots - cfg.min_slots + 1) as u64) as usize;
    let mut slots = Vec::with_capacity(num_slots + 2);
    for _ in 0..num_slots {
        let split = draw_split(&mut rng, cfg.nprocs);
        let groups = split.num_groups();
        let mut phases = Vec::new();
        if groups == 1 {
            let padding = rng.next_below(100) < cfg.padding_percent;
            phases.push(draw_phase(&mut rng, 0, cfg.nprocs, padding, cfg));
        } else {
            // 1–2 phases on distinct groups, starting at a rotated group so
            // all colors see both roles across a campaign.
            let count = 1 + rng.next_below(2) as usize;
            let start = rng.next_below(groups as u64) as usize;
            for i in 0..count.min(groups) {
                let g = (start + i) % groups;
                let padding = rng.next_below(100) < cfg.padding_percent;
                phases.push(draw_phase(
                    &mut rng,
                    g,
                    split.group_size(g, cfg.nprocs),
                    padding,
                    cfg,
                ));
            }
        }
        slots.push(Slot { split, phases });
    }
    // Guarantee both roles are present.
    let has_positive = slots
        .iter()
        .flat_map(|s| &s.phases)
        .any(|p| !p.is_padding());
    if !has_positive {
        let ph = draw_phase(&mut rng, 0, cfg.nprocs, false, cfg);
        slots.push(Slot {
            split: Split::Whole,
            phases: vec![ph],
        });
    }
    let has_padding = slots.iter().flat_map(|s| &s.phases).any(Phase::is_padding);
    if !has_padding {
        let ph = draw_phase(&mut rng, 0, cfg.nprocs, true, cfg);
        slots.push(Slot {
            split: Split::Whole,
            phases: vec![ph],
        });
    }
    let sc = Scenario {
        seed,
        nprocs: cfg.nprocs,
        slots,
    };
    debug_assert_eq!(sc.validate(), Ok(()));
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Phase;

    #[test]
    fn same_seed_same_scenario_bytes() {
        let cfg = GenConfig::default();
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let a = generate(seed, &cfg).to_json_value().render();
            let b = generate(seed, &cfg).to_json_value().render();
            assert_eq!(a, b, "seed {seed:#x}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        let a = generate(1, &cfg).to_json_value().render();
        let b = generate(2, &cfg).to_json_value().render();
        assert_ne!(a, b);
    }

    #[test]
    fn generated_scenarios_validate_and_have_both_roles() {
        let cfg = GenConfig::default();
        for seed in 0..200u64 {
            let sc = generate(seed, &cfg);
            sc.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{sc}"));
            assert!(
                sc.slots
                    .iter()
                    .flat_map(|s| &s.phases)
                    .any(Phase::is_padding),
                "seed {seed} has no padding"
            );
            assert!(
                sc.slots
                    .iter()
                    .flat_map(|s| &s.phases)
                    .any(|p| !p.is_padding()),
                "seed {seed} has no positive phase"
            );
            assert!(sc.num_phases() < 100, "region names stay two-digit");
        }
    }

    #[test]
    fn small_worlds_only_use_whole_splits() {
        let cfg = GenConfig {
            nprocs: 3,
            ..GenConfig::default()
        };
        for seed in 0..50u64 {
            let sc = generate(seed, &cfg);
            assert!(
                sc.slots.iter().all(|s| s.split == Split::Whole),
                "seed {seed}: {sc}"
            );
            sc.validate().unwrap();
        }
    }

    #[test]
    fn text_and_json_round_trip_generated_scenarios() {
        let cfg = GenConfig::default();
        for seed in 0..50u64 {
            let sc = generate(seed, &cfg);
            let text: Scenario = sc.to_string().parse().unwrap();
            assert_eq!(text, sc, "text round trip, seed {seed}");
            let json = Scenario::parse_line(&sc.to_json_value().render()).unwrap();
            assert_eq!(json, sc, "json round trip, seed {seed}");
        }
    }

    #[test]
    fn scan_phases_draw_descending_distributions() {
        let cfg = GenConfig::default();
        let mut seen = 0;
        for seed in 0..400u64 {
            let sc = generate(seed, &cfg);
            for (_, _, ph) in sc.indexed_phases() {
                if ph.property == "imbalance_at_mpi_scan" {
                    seen += 1;
                    let d: ats_core::Distr = ph.params["df"].parse().unwrap();
                    let vals = d.values(8, 1.0);
                    assert!(
                        vals.windows(2).all(|w| w[0] >= w[1]),
                        "seed {seed}: scan df not descending: {vals:?}"
                    );
                }
            }
        }
        assert!(seen > 0, "no scan phase in 400 scenarios");
    }
}
