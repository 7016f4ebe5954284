//! The serializable composite-scenario specification.
//!
//! A [`Scenario`] describes one composite test program: an ordered list of
//! *slots*, each of which partitions `MPI_COMM_WORLD` with a [`Split`] and
//! places catalog property functions (positive cases and well-tuned
//! padding) on the resulting groups. All phases of one slot execute
//! concurrently on disjoint groups; slots are separated by a world
//! barrier, so every slot starts from aligned clocks.
//!
//! A scenario has one wire form: a single text line (`Display` /
//! `FromStr`, read through [`Scenario::parse_line`]) such as
//! `seed=0x2a nprocs=4 | stride2 g0:late_sender r=1 + g1:balanced_mpi_barrier`.
//! The campaign service's bodies and rows, the fuzz corpus, log output and
//! cache keys all carry it. It round-trips exactly, and it is
//! byte-stable: parameters live in a `BTreeMap`, so the same scenario
//! value always prints the same bytes — the property the determinism
//! gate in CI checks.

use ats_core::catalog::{self, Paradigm, PropertySpec};
use ats_core::error::quote;
use ats_core::{Error, ParamValues};
use ats_mpi::MAX_NPROCS;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// How one slot partitions the world into groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// One group: the whole world (no `MPI_Comm_split` is issued).
    Whole,
    /// `groups` contiguous balanced blocks (group `g` covers global ranks
    /// `[g*n/G, (g+1)*n/G)`), like a row decomposition.
    Block {
        /// Number of groups.
        groups: usize,
    },
    /// Round-robin groups (`color = rank % groups`); `groups = 2` is the
    /// classic even/odd split of the paper's two-communicator composite.
    Stride {
        /// Number of groups.
        groups: usize,
    },
}

impl Split {
    /// Number of groups this split produces.
    pub fn num_groups(&self) -> usize {
        match self {
            Split::Whole => 1,
            Split::Block { groups } | Split::Stride { groups } => *groups,
        }
    }

    /// The group (color) of a global rank.
    pub fn color(&self, rank: usize, nprocs: usize) -> usize {
        match self {
            Split::Whole => 0,
            Split::Block { groups } => (0..*groups)
                .find(|&g| rank < (g + 1) * nprocs / groups)
                .expect("rank < nprocs"),
            Split::Stride { groups } => rank % groups,
        }
    }

    /// Size of group `g` under `nprocs` ranks.
    pub fn group_size(&self, g: usize, nprocs: usize) -> usize {
        match self {
            Split::Whole => nprocs,
            Split::Block { groups } => (g + 1) * nprocs / groups - g * nprocs / groups,
            Split::Stride { groups } => nprocs / groups + usize::from(g < nprocs % groups),
        }
    }
}

impl fmt::Display for Split {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Split::Whole => write!(f, "whole"),
            Split::Block { groups } => write!(f, "block{groups}"),
            Split::Stride { groups } => write!(f, "stride{groups}"),
        }
    }
}

impl FromStr for Split {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "whole" {
            return Ok(Split::Whole);
        }
        let parse_groups = |rest: &str| {
            rest.parse::<usize>()
                .map_err(|_| Error::scenario(format!("bad group count in split {}", quote(s))))
        };
        if let Some(rest) = s.strip_prefix("block") {
            return Ok(Split::Block {
                groups: parse_groups(rest)?,
            });
        }
        if let Some(rest) = s.strip_prefix("stride") {
            return Ok(Split::Stride {
                groups: parse_groups(rest)?,
            });
        }
        Err(Error::scenario(format!("unknown split {}", quote(s))))
    }
}

/// A phase's catalog record and parameters, resolved before the ranks
/// start.
pub(crate) type Resolved = (&'static PropertySpec, ParamValues);

/// One property-function invocation placed on one group of a slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Group (color) this phase runs on; `0` for [`Split::Whole`].
    pub group: usize,
    /// Catalog property-function name.
    pub property: String,
    /// Concrete parameter assignment in command-line value syntax
    /// (ordered map ⇒ byte-stable serialization).
    pub params: BTreeMap<String, String>,
}

impl Phase {
    /// Resolve the phase's catalog record, and its stored strings into
    /// typed [`ParamValues`] (defaults filled in for unset parameters).
    pub fn resolve(&self) -> Result<(&'static PropertySpec, ParamValues), Error> {
        let spec =
            catalog::find(&self.property).ok_or_else(|| Error::unknown_property(&self.property))?;
        let args: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let v = ParamValues::from_args(spec, &refs)
            .map_err(|e| Error::invalid_param(format!("{}: {e}", self.property)))?;
        Ok((spec, v))
    }

    /// True if this phase is a well-tuned padding phase (a catalog
    /// negative case, expected to stay finding-free).
    pub fn is_padding(&self) -> bool {
        catalog::find(&self.property).map(|s| s.paradigm) == Some(Paradigm::Negative)
    }
}

/// One slot: a world partition plus the phases running on its groups.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// How the world is partitioned for this slot.
    pub split: Split,
    /// Phases, at most one per group, on distinct groups.
    pub phases: Vec<Phase>,
}

/// A complete composite scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The generator seed this scenario was derived from (kept for
    /// provenance; replaying does not re-generate).
    pub seed: u64,
    /// World size.
    pub nprocs: usize,
    /// Slots, executed in order with a world barrier between them.
    pub slots: Vec<Slot>,
}

/// The trace region wrapped around the phase with global index `idx`
/// (two-digit zero padding; slash-terminated matching in the oracle keeps
/// wider indices unambiguous too).
pub fn region_name(idx: usize) -> String {
    format!("fz{idx:02}")
}

/// Name of the region wrapping the inter-slot world barrier. Waits inside
/// it are expected by construction (groups finish at different times) and
/// are never counted as oracle violations.
pub const SYNC_REGION: &str = "fuzz_sync";

impl Scenario {
    /// All phases with their global index: `(global_idx, slot_idx, phase)`.
    pub fn indexed_phases(&self) -> Vec<(usize, usize, &Phase)> {
        let mut out = Vec::new();
        for (si, slot) in self.slots.iter().enumerate() {
            for ph in &slot.phases {
                out.push((out.len(), si, ph));
            }
        }
        out
    }

    /// Total number of phases.
    pub fn num_phases(&self) -> usize {
        self.slots.iter().map(|s| s.phases.len()).sum()
    }

    /// Structural validity: a world of 1 to 8192 ranks, catalog
    /// names, group indices in range, at most one phase per group,
    /// parameters of the right kind inside their declared ranges, roots
    /// inside their group, and every group of at least two ranks (MPI
    /// properties need a partner). Returns the first problem found.
    pub fn validate(&self) -> Result<(), Error> {
        self.resolve().map(|_| ())
    }

    /// [`Scenario::validate`], returning what it resolved: each phase's
    /// catalog record and parameters, in global phase order (as
    /// [`Scenario::indexed_phases`] lists them).
    pub(crate) fn resolve(&self) -> Result<Vec<Resolved>, Error> {
        if self.nprocs == 0 {
            return Err(Error::scenario("nprocs must be positive"));
        }
        if self.nprocs > MAX_NPROCS {
            return Err(Error::scenario(format!(
                "nprocs {} exceeds the widest world, {MAX_NPROCS} ranks",
                self.nprocs
            )));
        }
        if self.slots.is_empty() {
            return Err(Error::scenario("scenario has no slots"));
        }
        let mut resolved = Vec::with_capacity(self.num_phases());
        for (si, slot) in self.slots.iter().enumerate() {
            let groups = slot.split.num_groups();
            if groups == 0 || groups > self.nprocs {
                return Err(Error::scenario(format!(
                    "slot {si}: {groups} groups over {} ranks",
                    self.nprocs
                )));
            }
            for g in 0..groups {
                if slot.split.group_size(g, self.nprocs) < 2 {
                    return Err(Error::scenario(format!(
                        "slot {si}: group {g} has fewer than 2 ranks"
                    )));
                }
            }
            let mut seen = Vec::new();
            for ph in &slot.phases {
                if ph.group >= groups {
                    return Err(Error::scenario(format!(
                        "slot {si}: phase on group {} of {groups}",
                        ph.group
                    )));
                }
                if seen.contains(&ph.group) {
                    return Err(Error::scenario(format!(
                        "slot {si}: two phases on group {}",
                        ph.group
                    )));
                }
                seen.push(ph.group);
                let (spec, v) = ph
                    .resolve()
                    .map_err(|e| Error::scenario(format!("slot {si}: {e}")))?;
                v.check_root(slot.split.group_size(ph.group, self.nprocs))
                    .map_err(|e| Error::scenario(format!("slot {si}: {}: {e}", ph.property)))?;
                resolved.push((spec, v));
            }
        }
        Ok(resolved)
    }

    /// Parse one spec line: the text form, with surrounding whitespace
    /// ignored. Every spec-accepting surface (CLI, the campaign service,
    /// perfbench) reads scenarios through here.
    pub fn parse_line(line: &str) -> Result<Scenario, Error> {
        line.trim().parse()
    }
}

impl fmt::Display for Scenario {
    /// Compact one-line text form:
    /// `seed=0x… nprocs=8 | stride2 g0:late_sender basework=0.01 r=2 + g1:balanced_mpi_barrier work=0.01 | whole g0:…`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={:#x} nprocs={}", self.seed, self.nprocs)?;
        for slot in &self.slots {
            write!(f, " | {}", slot.split)?;
            for (j, ph) in slot.phases.iter().enumerate() {
                if j > 0 {
                    write!(f, " +")?;
                }
                write!(f, " g{}:{}", ph.group, ph.property)?;
                for (k, v) in &ph.params {
                    write!(f, " {k}={v}")?;
                }
            }
        }
        Ok(())
    }
}

impl FromStr for Scenario {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut sections = s.split('|').map(str::trim);
        let head = sections
            .next()
            .ok_or_else(|| Error::scenario("empty scenario"))?;
        let mut seed = None;
        let mut nprocs = None;
        for tok in head.split_whitespace() {
            if let Some(v) = tok.strip_prefix("seed=") {
                let parsed = if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    v.parse()
                };
                seed = Some(parsed.map_err(|_| Error::scenario(format!("bad seed {}", quote(v))))?);
            } else if let Some(v) = tok.strip_prefix("nprocs=") {
                nprocs = Some(
                    v.parse()
                        .map_err(|_| Error::scenario(format!("bad nprocs {}", quote(v))))?,
                );
            } else {
                return Err(Error::scenario(format!(
                    "unexpected token {} in scenario header",
                    quote(tok)
                )));
            }
        }
        let mut slots = Vec::new();
        for section in sections {
            let mut chunks = section.split('+').map(str::trim);
            let first = chunks.next().ok_or_else(|| Error::scenario("empty slot"))?;
            let mut toks = first.split_whitespace();
            let split: Split = toks
                .next()
                .ok_or_else(|| Error::scenario("slot without split"))?
                .parse()?;
            let mut phases = Vec::new();
            let first_phase: Vec<&str> = toks.collect();
            let phase_chunks =
                std::iter::once(first_phase).chain(chunks.map(|c| c.split_whitespace().collect()));
            for chunk in phase_chunks {
                if chunk.is_empty() {
                    continue;
                }
                let header = chunk[0];
                let (g, prop) = header
                    .strip_prefix('g')
                    .and_then(|h| h.split_once(':'))
                    .ok_or_else(|| {
                        Error::scenario(format!("bad phase header {}", quote(header)))
                    })?;
                let group = g
                    .parse()
                    .map_err(|_| Error::scenario(format!("bad group in {}", quote(header))))?;
                let mut params = BTreeMap::new();
                for kv in &chunk[1..] {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| Error::scenario(format!("bad parameter {}", quote(kv))))?;
                    params.insert(k.to_owned(), v.to_owned());
                }
                phases.push(Phase {
                    group,
                    property: prop.to_owned(),
                    params,
                });
            }
            slots.push(Slot { split, phases });
        }
        Ok(Scenario {
            seed: seed.ok_or_else(|| Error::scenario("missing seed="))?,
            nprocs: nprocs.ok_or_else(|| Error::scenario("missing nprocs="))?,
            slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(group: usize, property: &str, params: &[(&str, &str)]) -> Phase {
        Phase {
            group,
            property: property.to_owned(),
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        }
    }

    fn sample() -> Scenario {
        Scenario {
            seed: 0xDEAD_BEEF,
            nprocs: 8,
            slots: vec![
                Slot {
                    split: Split::Stride { groups: 2 },
                    phases: vec![
                        phase(
                            0,
                            "late_sender",
                            &[("basework", "0.005"), ("extrawork", "0.03"), ("r", "2")],
                        ),
                        phase(1, "balanced_mpi_barrier", &[("work", "0.01"), ("r", "1")]),
                    ],
                },
                Slot {
                    split: Split::Whole,
                    phases: vec![phase(
                        0,
                        "imbalance_at_mpi_barrier",
                        &[("df", "block2:low=0.005,high=0.03"), ("r", "2")],
                    )],
                },
            ],
        }
    }

    #[test]
    fn split_covers_all_ranks_exactly_once() {
        for split in [
            Split::Whole,
            Split::Block { groups: 3 },
            Split::Stride { groups: 3 },
            Split::Block { groups: 2 },
            Split::Stride { groups: 4 },
        ] {
            for nprocs in [4, 7, 8, 9, 16] {
                if split.num_groups() > nprocs {
                    continue;
                }
                let mut sizes = vec![0usize; split.num_groups()];
                for rank in 0..nprocs {
                    sizes[split.color(rank, nprocs)] += 1;
                }
                for (g, &count) in sizes.iter().enumerate() {
                    assert_eq!(
                        count,
                        split.group_size(g, nprocs),
                        "{split} g{g} over {nprocs}"
                    );
                }
                assert_eq!(sizes.iter().sum::<usize>(), nprocs);
            }
        }
    }

    #[test]
    fn block_split_is_contiguous() {
        let split = Split::Block { groups: 3 };
        let colors: Vec<usize> = (0..8).map(|r| split.color(r, 8)).collect();
        assert!(colors.windows(2).all(|w| w[0] <= w[1]), "{colors:?}");
    }

    #[test]
    fn parse_line_reads_only_the_text_form() {
        let s = sample();
        let from_text = Scenario::parse_line(&format!("  {s}\n")).unwrap();
        assert_eq!(from_text, s);
        for line in [
            "{not json",
            r#"{"nprocs":2,"seed":7,"slots":[{"phases":[],"split":"whole"}]}"#,
        ] {
            let err = Scenario::parse_line(line).unwrap_err();
            assert_eq!(err.kind(), ats_core::ErrorKind::Scenario, "{line}");
        }
    }

    #[test]
    fn errors_quote_at_most_64_bytes_of_the_offending_text() {
        let huge = "x".repeat(100_000);
        for line in [
            format!("{{\"seed\":{}", "[".repeat(100_000)),
            format!("seed=1 nprocs=2 | whole g0:late_sender extrawork={huge}"),
            format!("seed=1 nprocs=2 | whole g0:imbalance_at_mpi_barrier df={huge}"),
        ] {
            let err = Scenario::parse_line(&line)
                .and_then(|sc| sc.validate())
                .unwrap_err();
            let msg = err.to_string();
            assert!(msg.len() < 256, "{} bytes: {msg}", msg.len());
            assert!(msg.contains(" bytes)"), "{msg}");
        }
        // A multi-byte character across the cut is dropped whole.
        let text = format!("{}é", "a".repeat(63));
        assert_eq!(quote(&text), format!("`{}…` (65 bytes)", "a".repeat(63)));
        assert_eq!(quote("short"), "`short`");
    }

    #[test]
    fn text_form_round_trips() {
        let s = sample();
        let text = s.to_string();
        assert!(text.starts_with("seed=0xdeadbeef nprocs=8 | stride2 g0:late_sender"));
        assert!(
            !text.contains('\n'),
            "a campaign body holds one scenario per line"
        );
        let back: Scenario = text.parse().unwrap_or_else(|e| panic!("{e}: {text}"));
        assert_eq!(back, s);
        assert_eq!(back.to_string(), text, "printing must be byte-stable");
    }

    #[test]
    fn validate_accepts_the_sample_and_rejects_breakage() {
        assert_eq!(sample().validate(), Ok(()));

        let mut bad = sample();
        bad.slots[0].phases[0].property = "flux_capacitor".into();
        assert!(bad.validate().is_err());

        let mut bad = sample();
        bad.slots[0].phases[1].group = 7;
        assert!(bad.validate().is_err());

        let mut bad = sample();
        bad.slots[0].phases[1].group = 0; // duplicate group
        assert!(bad.validate().is_err());

        let mut bad = sample();
        bad.nprocs = 3; // stride2 over 3 ranks -> a singleton group
        assert!(bad.validate().is_err());

        let mut bad = sample();
        bad.slots[1].phases[0] = phase(0, "late_broadcast", &[("root", "9")]);
        assert!(bad.validate().is_err(), "root outside the group");
    }

    #[test]
    fn validate_bounds_the_world_and_every_parameter() {
        let mut wide = sample();
        wide.nprocs = MAX_NPROCS;
        assert_eq!(wide.validate(), Ok(()), "the widest world is legal");
        for (line, needle) in [
            ("seed=1 nprocs=1000000000 | whole g0:late_sender", "8192"),
            (
                "seed=1 nprocs=2 | whole g0:imbalance_at_omp_barrier nthreads=0",
                "[1, 16]",
            ),
            (
                "seed=1 nprocs=2 | whole g0:late_sender r=1000000000",
                "[1, 64]",
            ),
        ] {
            let err = Scenario::parse_line(line)
                .and_then(|sc| sc.validate())
                .unwrap_err();
            assert_eq!(err.kind(), ats_core::ErrorKind::Scenario, "{line}");
            assert!(err.to_string().contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn padding_detection_follows_the_catalog() {
        assert!(phase(0, "balanced_mpi_barrier", &[]).is_padding());
        assert!(!phase(0, "late_sender", &[]).is_padding());
    }

    #[test]
    fn region_names_are_two_digit_padded() {
        assert_eq!(region_name(0), "fz00");
        assert_eq!(region_name(7), "fz07");
        assert_eq!(region_name(42), "fz42");
    }
}
