//! The single-property test-program generator.
//!
//! The paper envisions generating standalone main programs "automatically
//! from the performance property function signatures, e.g., using a parser
//! tool like PDT" and lists the generator as unimplemented future work.
//! ATS-RS implements it: every catalog entry can be rendered into a
//! complete, compilable Rust source file whose `main` parses the property
//! parameters from `key=value` command-line arguments and executes the
//! property through the registry.
//!
//! (The `single_property` example binary in this repository is itself an
//! instance of the generated skeleton, kept generic over the property
//! name.)

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
/// program for `spec`.
fn generate_program(spec: &PropertySpec) -> String {
    let mut src = String::new();
    let _ = writeln!(
        src,
        "//! Auto-generated ATS single-property test program: `{}`.",
        spec.name
    );
    let _ = writeln!(src, "//!");
    let _ = writeln!(src, "//! {}", spec.description);
    let _ = writeln!(
        src,
        "//! Generated from the ATS catalog signature; do not edit."
    );
    let _ = writeln!(src);
    let _ = writeln!(
        src,
        "use ats_harness::{{run_single, ParamValues, RunOpts}};"
    );
    let _ = writeln!(src);
    let _ = writeln!(src, "fn main() {{");
    let _ = writeln!(
        src,
        "    let spec = ats_core::catalog::find({:?}).expect(\"in catalog\");",
        spec.name
    );
    let _ = writeln!(
        src,
        "    let args: Vec<String> = std::env::args().skip(1).collect();"
    );
    let _ = writeln!(src, "    if args.iter().any(|a| a == \"--help\") {{");
    let _ = writeln!(
        src,
        "        print!(\"{{}}\", ats_harness::generate::usage(spec));"
    );
    let _ = writeln!(src, "        return;");
    let _ = writeln!(src, "    }}");
    let _ = writeln!(
        src,
        "    let refs: Vec<&str> = args.iter().map(String::as_str).collect();"
    );
    let _ = writeln!(
        src,
        "    let params = match ParamValues::from_args(spec, &refs) {{"
    );
    let _ = writeln!(src, "        Ok(p) => p,");
    let _ = writeln!(src, "        Err(e) => {{");
    let _ = writeln!(src, "            eprintln!(\"{}: {{e}}\");", spec.name);
    let _ = writeln!(src, "            std::process::exit(2);");
    let _ = writeln!(src, "        }}");
    let _ = writeln!(src, "    }};");
    let _ = writeln!(src, "    let opts = RunOpts::default();");
    let _ = writeln!(
        src,
        "    let trace = run_single({:?}, &params, &opts).expect(\"catalog name\");",
        spec.name
    );
    let _ = writeln!(src, "    let report = ats_analyzer::analyze(");
    let _ = writeln!(src, "        &trace,");
    let _ = writeln!(src, "        &ats_analyzer::AnalyzerConfig::default(),");
    let _ = writeln!(src, "    );");
    let _ = writeln!(src, "    println!(\"{{}}\", report.render(&trace));");
    let _ = writeln!(src, "}}");
    src
}

/// Generate programs for the whole catalog: `(file name, source)` pairs.
pub fn generate_all() -> Vec<(String, String)> {
    ats_core::CATALOG
        .iter()
        .map(|spec| (format!("{}.rs", spec.name), generate_program(spec)))
        .collect()
}

/// Generate a Fortran 90 driver skeleton for `spec` — the paper's closing
/// request ("Because of its importance in the scientific computing
/// community, we also need a Fortran version, ideally automatically
/// generated from the C version"). The emitted program parses the same
/// `key=value` command line and calls the property function through the
/// (hypothetical) `ats` Fortran module; it documents the calling
/// convention for groups porting the suite to a real MPI + Fortran stack.
fn generate_fortran(spec: &PropertySpec) -> String {
    let mut src = String::new();
    let _ = writeln!(
        src,
        "! Auto-generated ATS single-property test program: {}",
        spec.name
    );
    let _ = writeln!(src, "! {}", spec.description);
    let _ = writeln!(
        src,
        "! Generated from the ATS catalog signature; do not edit."
    );
    let _ = writeln!(src, "program ats_{}", spec.name);
    let _ = writeln!(src, "  use ats");
    let _ = writeln!(src, "  use mpi");
    let _ = writeln!(src, "  implicit none");
    let _ = writeln!(src, "  integer :: ierr");
    for p in spec.params {
        let decl = match p.kind {
            ParamKind::Seconds => "real(kind=8)",
            ParamKind::Count => "integer",
            ParamKind::Distribution => "type(ats_distr)",
        };
        let _ = writeln!(src, "  {} :: {}", decl, p.name);
    }
    let _ = writeln!(src, "  call MPI_Init(ierr)");
    for p in spec.params {
        let _ = writeln!(
            src,
            "  call ats_parse_{}('{}', '{}', {})",
            match p.kind {
                ParamKind::Seconds => "seconds",
                ParamKind::Count => "count",
                ParamKind::Distribution => "distr",
            },
            p.name,
            p.default,
            p.name
        );
    }
    let args: Vec<&str> = spec.params.iter().map(|p| p.name).collect();
    let _ = writeln!(
        src,
        "  call ats_{}({}, MPI_COMM_WORLD)",
        spec.name,
        args.join(", ")
    );
    let _ = writeln!(src, "  call MPI_Finalize(ierr)");
    let _ = writeln!(src, "end program ats_{}", spec.name);
    src
}

/// Fortran drivers for the whole catalog.
pub fn generate_all_fortran() -> Vec<(String, String)> {
    ats_core::CATALOG
        .iter()
        .map(|spec| (format!("{}.f90", spec.name), generate_fortran(spec)))
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
        // Distribution parameters take no numeric range.
        let imb = catalog::find("imbalance_at_mpi_barrier").unwrap();
        let line = usage(imb)
            .lines()
            .find(|l| l.trim_start().starts_with("df"))
            .unwrap()
            .to_owned();
        assert!(!line.contains("range="), "df should have no range: {line}");
    }

    #[test]
    fn generated_source_is_plausible_rust() {
        let spec = catalog::find("late_sender").unwrap();
        let src = generate_program(spec);
        assert!(src.contains("fn main()"));
        assert!(src.contains("run_single(\"late_sender\""));
        assert!(src.contains("ParamValues::from_args"));
        assert!(src.contains("ats_analyzer::analyze"));
        // Balanced braces — a cheap structural sanity check.
        let opens = src.matches('{').count();
        let closes = src.matches('}').count();
        assert_eq!(opens, closes, "unbalanced braces in generated source");
    }

    #[test]
    fn fortran_driver_has_the_right_shape() {
        let spec = catalog::find("late_broadcast").unwrap();
        let f = generate_fortran(spec);
        assert!(f.starts_with("! Auto-generated"));
        assert!(f.contains("program ats_late_broadcast"));
        assert!(f.contains("call MPI_Init(ierr)"));
        assert!(f.contains("call MPI_Finalize(ierr)"));
        assert!(f.contains("call ats_late_broadcast(basework, extrawork, root, r, MPI_COMM_WORLD)"));
        for p in spec.params {
            assert!(f.contains(p.name), "missing parameter {}", p.name);
        }
        assert!(f.trim_end().ends_with("end program ats_late_broadcast"));
    }

    #[test]
    fn fortran_catalog_complete() {
        let all = generate_all_fortran();
        assert_eq!(all.len(), ats_core::CATALOG.len());
        for (name, src) in &all {
            assert!(name.ends_with(".f90"));
            assert!(src.contains("implicit none"));
        }
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
