//! Score a tool against the whole suite: run every catalog entry (positive
//! and negative) through the experiment engine and report
//! positive/negative correctness — the suite's reason to exist. Here the
//! tool under test is the bundled analyzer; a real tool would hook in at
//! the same trace interface.
//!
//! Run with: `cargo run --example tool_scorecard`

use ats::harness::{correctness, Session};

fn main() {
    let summary =
        correctness::score_catalog(&Session::builder().procs(8).build()).expect("catalog runnable");
    print!("{}", summary.render());
    if summary.all_correct() {
        println!("\ntool scorecard: PASS (all positive properties detected + localized, all negative cases silent)");
    } else {
        println!("\ntool scorecard: FAIL");
        std::process::exit(1);
    }
}
