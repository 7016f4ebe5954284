//! The single-property test-program generator.
//!
//! The paper envisions generating standalone main programs "automatically
//! from the performance property function signatures, e.g., using a parser
//! tool like PDT" and lists the generator as unimplemented future work.
//! ATS-RS implements it: every catalog entry can be rendered into a
//! complete Rust source file whose `main` parses the property parameters
//! from `key=value` command-line arguments, runs the property through a
//! [`Session`](crate::Session) and prints the analysis.
//!
//! `examples/late_sender.rs` is one generated program, committed so that
//! every `cargo test` compiles the generator's output; the
//! `single_property` example is the same skeleton, generic over the
//! property name.

use ats_core::{ParamKind, PropertySpec};
use std::fmt::Write as _;

/// Render the usage text for one property's generated program.
pub fn usage(spec: &PropertySpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "usage: {} [key=value ...]", spec.name);
    let _ = writeln!(out, "  {}", spec.description);
    let _ = writeln!(out, "parameters:");
    for p in spec.params {
        let kind = match p.kind {
            ParamKind::Seconds => "seconds",
            ParamKind::Count => "count",
            ParamKind::Distribution => "distribution",
        };
        let range = p
            .range_display()
            .map(|r| format!(" range={r}"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {:<14} {:<12} default={:<24} {}{}",
            p.name, kind, p.default, p.help, range
        );
    }
    out
}

/// Generate the complete Rust source of a standalone single-property test
/// program for `spec`: it reads `key=value` parameters, runs the entry
/// through a [`Session`](crate::Session) and prints the analysis.
fn generate_program(spec: &PropertySpec) -> String {
    format!(
        r#"//! Auto-generated ATS single-property test program: `{name}`.
//!
//! {description}
//! Generated from the ATS catalog signature; do not edit.

use ats::harness::{{generate, ParamValues, Session}};

fn main() {{
    let spec = ats::core::catalog::find("{name}").expect("in catalog");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {{
        print!("{{}}", generate::usage(spec));
        return;
    }}
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = ParamValues::from_args(spec, &refs)
        .map_err(|e| e.to_string())
        .and_then(|params| {{
            Session::default()
                .run_and_analyze("{name}", &params)
                .map_err(|e| e.to_string())
        }});
    match run {{
        Ok((trace, report)) => println!("{{}}", report.render(&trace)),
        Err(e) => {{
            eprintln!("{name}: {{e}}");
            std::process::exit(2);
        }}
    }}
}}
"#,
        name = spec.name,
        description = spec.description,
    )
}

/// Generate programs for the whole catalog: `(file name, source)` pairs.
pub fn generate_all() -> Vec<(String, String)> {
    ats_core::CATALOG
        .iter()
        .map(|spec| (format!("{}.rs", spec.name), generate_program(spec)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_core::catalog;

    #[test]
    fn usage_lists_all_parameters() {
        let spec = catalog::find("late_broadcast").unwrap();
        let u = usage(spec);
        for p in spec.params {
            assert!(u.contains(p.name), "usage missing {}", p.name);
            assert!(u.contains(p.default), "usage missing default {}", p.default);
        }
        assert!(u.contains("late_broadcast"));
    }

    #[test]
    fn usage_shows_legal_ranges() {
        let spec = catalog::find("late_broadcast").unwrap();
        let u = usage(spec);
        // Numeric parameters advertise their legal range; the root rank's
        // upper bound is the communicator size, rendered as an open bound.
        assert!(u.contains("range=[1, 64]"), "reps range missing:\n{u}");
        assert!(u.contains("range=[0, ..]"), "root range missing:\n{u}");
        assert!(u.contains("range=[0, 1]"), "seconds range missing:\n{u}");
        // A distribution's values are seconds, in the same range.
        let imb = catalog::find("imbalance_at_mpi_barrier").unwrap();
        let line = usage(imb)
            .lines()
            .find(|l| l.trim_start().starts_with("df"))
            .unwrap()
            .to_owned();
        assert!(line.contains("range=[0, 1]"), "df range missing: {line}");
    }

    /// `examples/late_sender.rs` is the generator's output, so `cargo
    /// test` compiles one generated program.
    #[test]
    fn generated_program_is_the_committed_example() {
        let spec = catalog::find("late_sender").unwrap();
        let committed = include_str!("../../../examples/late_sender.rs");
        assert_eq!(generate_program(spec), committed);
    }

    #[test]
    fn generate_all_covers_catalog() {
        let all = generate_all();
        assert_eq!(all.len(), ats_core::CATALOG.len());
        for (name, src) in &all {
            assert!(name.ends_with(".rs"));
            assert!(src.contains("Auto-generated"));
        }
    }
}
