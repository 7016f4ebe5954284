//! Auto-generated ATS single-property test program: `late_sender`.
//!
//! receiver blocks in MPI_Recv because the send is posted late
//! Generated from the ATS catalog signature; do not edit.

use ats::harness::{generate, ParamValues, Session};

fn main() {
    let spec = ats::core::catalog::find("late_sender").expect("in catalog");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        print!("{}", generate::usage(spec));
        return;
    }
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = ParamValues::from_args(spec, &refs)
        .map_err(|e| e.to_string())
        .and_then(|params| {
            Session::default()
                .run_and_analyze("late_sender", &params)
                .map_err(|e| e.to_string())
        });
    match run {
        Ok((trace, report)) => println!("{}", report.render(&trace)),
        Err(e) => {
            eprintln!("late_sender: {e}");
            std::process::exit(2);
        }
    }
}
