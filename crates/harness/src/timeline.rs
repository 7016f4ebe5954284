//! Vampir-style timeline rendering.
//!
//! The paper's Figures 3.2–3.4 are Vampir timeline screenshots: one row
//! per location, colored by the state the location is in (computation, MPI
//! call, OpenMP construct, idle). This module regenerates those views from
//! a [`Trace`], as fixed-width text (for terminals/EXPERIMENTS.md) and as
//! standalone SVG.

use ats_runtime::VTime;
use ats_trace::{EventKind, LocationId, RegionKind, Trace};
use std::fmt::Write as _;

/// The state of a location at an instant, derived from its region stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Before the first / after the last event.
    Absent,
    /// No open region (between calls).
    Idle,
    /// Computing (`do_work` and user regions).
    Work,
    /// In an MPI point-to-point call.
    MpiP2p,
    /// In an MPI collective call.
    MpiColl,
    /// In MPI setup (init/finalize).
    MpiSetup,
    /// In an OpenMP synchronization construct.
    OmpSync,
    /// In any other OpenMP construct or parallel region.
    Omp,
}

impl State {
    /// Glyph used in text timelines.
    fn glyph(self) -> char {
        match self {
            State::Absent => ' ',
            State::Idle => '.',
            State::Work => '#',
            State::MpiP2p => 'm',
            State::MpiColl => 'C',
            State::MpiSetup => 'I',
            State::OmpSync => 'b',
            State::Omp => 'o',
        }
    }

    /// Fill color used in SVG timelines.
    pub fn color(self) -> &'static str {
        match self {
            State::Absent => "none",
            State::Idle => "#e8e8e8",
            State::Work => "#4c78a8",
            State::MpiP2p => "#e45756",
            State::MpiColl => "#f58518",
            State::MpiSetup => "#b279a2",
            State::OmpSync => "#eeca3b",
            State::Omp => "#54a24b",
        }
    }

    fn from_region(kind: RegionKind) -> State {
        match kind {
            RegionKind::Work | RegionKind::User | RegionKind::Property => State::Work,
            RegionKind::MpiP2p => State::MpiP2p,
            RegionKind::MpiCollective => State::MpiColl,
            RegionKind::MpiSetup => State::MpiSetup,
            RegionKind::OmpSync => State::OmpSync,
            RegionKind::OmpParallel | RegionKind::OmpWorkshare => State::Omp,
        }
    }
}

/// A sampled timeline: `columns` states per location.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Sampled rows, sorted by location.
    pub rows: Vec<(LocationId, Vec<State>)>,
    /// Start of the sampled window.
    pub t0: VTime,
    /// End of the sampled window.
    pub t1: VTime,
}

/// Sample the trace into `columns` time bins. Each bin shows the state the
/// location is in at the bin's start instant (piecewise-constant
/// interpolation, like a zoomed-out Vampir view).
fn sample(trace: &Trace, columns: usize) -> Timeline {
    assert!(columns > 0, "need at least one column");
    let t0 = trace.start_time();
    let t1 = trace.end_time();
    let span = (t1 - t0).as_nanos().max(1);
    let mut rows = Vec::with_capacity(trace.num_locations());
    for lt in &trace.locations {
        // Build the stepwise state function from the event stream, then
        // sample it.
        let mut steps: Vec<(VTime, State)> = Vec::with_capacity(lt.events.len() + 1);
        let mut stack: Vec<State> = Vec::new();
        let begin = lt.start_time();
        let end = lt.end_time();
        steps.push((begin, State::Idle));
        for ev in &lt.events {
            match ev.kind {
                EventKind::Enter { region } => {
                    let state = trace
                        .region_kind(region)
                        .map(State::from_region)
                        .unwrap_or(State::Work);
                    stack.push(state);
                    steps.push((ev.time, state));
                }
                EventKind::Exit { .. } => {
                    stack.pop();
                    steps.push((ev.time, stack.last().copied().unwrap_or(State::Idle)));
                }
                _ => {}
            }
        }
        let mut samples = Vec::with_capacity(columns);
        let mut cursor = 0usize;
        for col in 0..columns {
            let t = VTime(t0.0 + span * col as u64 / columns as u64);
            if t < begin || t > end {
                samples.push(State::Absent);
                continue;
            }
            while cursor + 1 < steps.len() && steps[cursor + 1].0 <= t {
                cursor += 1;
            }
            samples.push(steps[cursor].1);
        }
        rows.push((lt.location, samples));
    }
    Timeline { rows, t0, t1 }
}

/// Render a text timeline (one row per location).
pub fn render_text(trace: &Trace, columns: usize) -> String {
    let tl = sample(trace, columns);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline {} .. {}   (#=work m=p2p C=collective I=init/finalize b=omp-sync o=omp .=idle)",
        tl.t0, tl.t1
    );
    for (loc, states) in &tl.rows {
        let row: String = states.iter().map(|s| s.glyph()).collect();
        let _ = writeln!(out, "{loc:>6} |{row}|");
    }
    out
}

/// Render an SVG timeline including message arrows (Vampir draws each
/// matched send→receive pair as a line from the sender's post to the
/// receiver's completion).
pub fn render_svg(trace: &Trace, columns: usize) -> String {
    render_svg_opts(trace, columns, true)
}

/// SVG rendering with the message arrows optional.
fn render_svg_opts(trace: &Trace, columns: usize, arrows: bool) -> String {
    let tl = sample(trace, columns);
    let cell_w = 4;
    let cell_h = 14;
    let label_w = 60;
    let width = label_w + columns * cell_w + 10;
    let height = tl.rows.len() * (cell_h + 2) + 30;
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="monospace" font-size="10">"#
    );
    let _ = writeln!(
        out,
        r#"<text x="4" y="12">ATS timeline {} .. {}</text>"#,
        tl.t0, tl.t1
    );
    // Row lookup for message arrows: only rank-level rows carry messages.
    let row_of = |rank: u32| -> Option<usize> {
        tl.rows
            .iter()
            .position(|(l, _)| l.rank == rank && l.thread == 0)
    };
    let x_of = |t: ats_runtime::VTime| -> usize {
        let span = (tl.t1 - tl.t0).as_nanos().max(1);
        label_w + ((t - tl.t0).as_nanos() as usize * (columns * cell_w)) / span as usize
    };
    for (row_idx, (loc, states)) in tl.rows.iter().enumerate() {
        let y = 20 + row_idx * (cell_h + 2);
        let _ = writeln!(out, r#"<text x="4" y="{}">{loc}</text>"#, y + cell_h - 3);
        // Run-length encode adjacent identical states to keep files small.
        let mut col = 0;
        while col < states.len() {
            let state = states[col];
            let mut run = 1;
            while col + run < states.len() && states[col + run] == state {
                run += 1;
            }
            if state != State::Absent {
                let x = label_w + col * cell_w;
                let _ = writeln!(
                    out,
                    r#"<rect x="{x}" y="{y}" width="{}" height="{cell_h}" fill="{}"><title>{loc} {state:?}</title></rect>"#,
                    run * cell_w,
                    state.color()
                );
            }
            col += run;
        }
    }
    if arrows {
        let ex = ats_analyzer::extract::extract(trace);
        for pair in ats_analyzer::patterns::match_messages(&ex) {
            let (Some(sr), Some(rr)) = (row_of(pair.send.loc.rank), row_of(pair.recv.loc.rank))
            else {
                continue;
            };
            let x1 = x_of(pair.send.post);
            let y1 = 20 + sr * (cell_h + 2) + cell_h / 2;
            let x2 = x_of(pair.recv.completion);
            let y2 = 20 + rr * (cell_h + 2) + cell_h / 2;
            let _ = writeln!(
                out,
                r##"<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#222222" stroke-width="0.7" opacity="0.6"/>"##
            );
        }
    }
    let _ = writeln!(out, "</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_core::{properties::mpi_coll, Distr};
    use ats_mpi::SimConfig;
    use ats_runtime::{MachineModel, VDur};

    fn barrier_trace() -> Trace {
        let df = Distr::block2(0.01, 0.05);
        let config = SimConfig {
            nprocs: 4,
            model: MachineModel::zero(),
            init_time: VDur::from_millis(5),
            finalize_time: VDur::from_millis(5),
            ..Default::default()
        };
        ats_mpi::run(config, move |p| {
            let c = p.comm_world();
            mpi_coll::imbalance_at_mpi_barrier(p, &df, 2, &c);
        })
    }

    #[test]
    fn text_timeline_has_one_row_per_location() {
        let trace = barrier_trace();
        let text = render_text(&trace, 80);
        let rows: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row.contains('|'));
        }
    }

    #[test]
    fn fast_ranks_show_waiting_as_collective_time() {
        let trace = barrier_trace();
        let tl = sample(&trace, 100);
        // Rank 0 (10ms work) spends more of the pre-barrier phase in 'C'
        // than rank 3 (50ms work).
        let count_c = |row: &[State]| row.iter().filter(|s| **s == State::MpiColl).count();
        let r0 = count_c(&tl.rows[0].1);
        let r3 = count_c(&tl.rows[3].1);
        assert!(r0 > r3, "rank0 collective cells {r0} vs rank3 {r3}");
    }

    #[test]
    fn init_phase_sampled_as_setup() {
        let trace = barrier_trace();
        let tl = sample(&trace, 100);
        for (_, row) in &tl.rows {
            assert_eq!(row[0], State::MpiSetup, "run starts inside MPI_Init");
        }
    }

    #[test]
    fn svg_contains_rows_and_valid_header() {
        let trace = barrier_trace();
        let svg = render_svg(&trace, 60);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(
            svg.matches("<rect").count() >= 4,
            "at least one rect per rank"
        );
    }

    #[test]
    fn svg_draws_message_arrows_for_p2p_programs() {
        use ats_core::{properties::mpi_p2p, BaseComm};
        let config = SimConfig {
            nprocs: 4,
            model: MachineModel::zero(),
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            ..Default::default()
        };
        let trace = ats_mpi::run(config, |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.005, 0.02, 3, &c);
        });
        let with = render_svg(&trace, 80);
        let without = render_svg_opts(&trace, 80, false);
        // 2 pairs x 3 reps = 6 messages = 6 arrow lines.
        assert_eq!(with.matches("<line").count(), 6);
        assert_eq!(without.matches("<line").count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_columns_rejected() {
        let trace = barrier_trace();
        let _ = sample(&trace, 0);
    }
}
