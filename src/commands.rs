//! The `ats` subcommands: the [`COMMANDS`] table [`crate::cli::run`]
//! dispatches on, and the commands that run one program, read one trace
//! or print one listing. The paper's figures live in [`crate::figures`],
//! the experiments in [`crate::experiments`] and the CI gates in
//! [`crate::bench`].

use crate::analyzer::asl;
use crate::cli::{
    cannot_write, failed, write_file, write_trace, CliError, Command, CommonArgs, CACHE, CACHE_DIR,
    MANIFEST, METRICS,
};
use crate::harness::{correctness, generate, validation, ParamValues, Session};
use crate::obs::ObsConfig;
use crate::runtime::VDur;
use crate::serve::ServeConfig;
use crate::store::CacheMode;
use crate::trace::binfmt::BlockReader;
use crate::trace::io::TraceIoError;
use crate::trace::{EventKind, RegionId, Trace};
use crate::{bench, experiments, figures};
use ats_bench::stress::{write_stress, StressConfig};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The value flags of a figure command that writes timelines.
const FIGURE: &[(&str, &str)] = &[METRICS, ("svg", "DIR"), ("trace-dir", "DIR")];

/// The positionals of a command that runs one catalog property.
const PROPERTY: &[&str] = &["PROPERTY", "[key=value...]"];

/// The value flags of a sweep.
const SWEEP: &[(&str, &str)] = &[CACHE, CACHE_DIR, METRICS, ("trace-dir", "DIR")];

/// Every `ats` subcommand.
pub(crate) const COMMANDS: &[Command] = &[
    Command::new("catalog", catalog).about("the property-function catalog"),
    Command::new("generate", generate_cmd)
        .positionals(&["DIR"])
        .about("write the single-property test programs to DIR"),
    Command::new("run", run_cmd)
        .positionals(PROPERTY)
        .values(&[("procs", "N"), ("save", "FILE"), METRICS])
        .bools(&[MANIFEST])
        .about("run one single-property program and analyze it"),
    Command::new("timeline", timeline_cmd)
        .positionals(PROPERTY)
        .about("the same, with the Vampir-style timeline"),
    Command::new("profile", profile_cmd)
        .positionals(PROPERTY)
        .about("flat time profile of a property run"),
    Command::new("phases", phases_cmd)
        .positionals(PROPERTY)
        .about("windowed severity series and trend"),
    Command::new("asl", asl_cmd)
        .positionals(&["SET.asl", "PROPERTY", "[key=value...]"])
        .about("evaluate a declarative property set on a property run"),
    Command::new("analyze", analyze_cmd)
        .positionals(&["FILE"])
        .values(&[METRICS])
        .bools(&["json", MANIFEST])
        .about("analyze an ATSB trace file"),
    Command::new("trace dump", trace_dump)
        .positionals(&["FILE"])
        .about("print an ATSB trace readably"),
    Command::new("trace gen", trace_gen)
        .positionals(&["OUT.atsb"])
        .values(&[("ranks", "N"), ("mb", "N"), ("inner", "N")])
        .about("stream a synthetic stress trace of about N MB to OUT.atsb"),
    Command::new("score", score).about("suite-wide correctness scorecard"),
    Command::new("validate", validate)
        .positionals(&["[nprocs]"])
        .about("E-over: semantics preservation and instrumentation overhead"),
    Command::new("apps", apps).about("the application collection"),
    Command::new("resources", resources).about("the paper's chapter-2 suite collection"),
    Command::new("figure 32", figures::figure32)
        .positionals(&["[nprocs]"])
        .values(FIGURE)
        .bools(&[MANIFEST])
        .about("Fig. 3.2: two parameterizations of one single-property program"),
    Command::new("figure 33", figures::figure33)
        .positionals(&["[nprocs]"])
        .values(FIGURE)
        .bools(&[MANIFEST])
        .about("Fig. 3.3: all MPI property functions in one program"),
    Command::new("figure 34", figures::figure34)
        .positionals(&["[nprocs]"])
        .values(FIGURE)
        .bools(&[MANIFEST])
        .about("Fig. 3.4: two communicators, different property sets in parallel"),
    Command::new("figure 35", figures::figure35)
        .positionals(&["[nprocs]"])
        .values(&[METRICS, ("trace", "FILE")])
        .bools(&[MANIFEST])
        .about("Fig. 3.5: the EXPERT-style analysis of the Fig. 3.4 program"),
    Command::new("sweep positive", experiments::sweep_positive)
        .positionals(&["[nprocs]", "[jobs]"])
        .values(SWEEP)
        .bools(&[MANIFEST])
        .about("E-pos: severity tracking across the positive catalog"),
    Command::new("sweep negative", experiments::sweep_negative)
        .positionals(&["[jobs]"])
        .values(SWEEP)
        .bools(&[MANIFEST])
        .about("E-neg: false-positive scan over the negative catalog"),
    Command::new("sweep scaling", experiments::scaling)
        .positionals(&["[jobs]"])
        .about("E-scale: severity against process count"),
    Command::new("ablation", experiments::ablation)
        .positionals(&["[jobs]"])
        .about("design-choice ablations"),
    Command::new("fuzz", experiments::fuzz)
        .positionals(&["[count]", "[seed]", "[jobs]"])
        .values(&[
            METRICS,
            ("nprocs", "N"),
            ("corpus", "DIR"),
            ("threshold", "T"),
        ])
        .bools(&["replay", "no-shrink", MANIFEST])
        .about("gate: seeded scenarios scored by the oracle, 0 violations"),
    Command::new("bench sched", bench::sched::run)
        .positionals(&["[rounds]"])
        .about("gate: event carrier >= 10x the thread carrier at 256 ranks"),
    Command::new("bench trace", bench::trace::run)
        .positionals(&["[nprocs]", "[reps]"])
        .values(&[("stress-ranks", "N"), ("stress-mb", "N")])
        .about("gate: lossless ATSB, streaming analysis >= 1M events/s and >= 2x"),
    Command::new("bench store", bench::store::run)
        .positionals(&["[nprocs]", "[jobs]"])
        .values(&[CACHE_DIR, METRICS])
        .bools(&[MANIFEST])
        .about("gate: warm campaign replays >= 95% byte-identically, 0 writes"),
    Command::new("bench serve", bench::serve::run)
        .positionals(&["[clients]", "[rounds]"])
        .values(&[CACHE_DIR, ("workers", "N")])
        .about("gate: service flood, all acked and identical, p99 <= 2 s"),
    Command::new("bench obs", bench::obs::run)
        .positionals(&["[reps]", "[nprocs]"])
        .about("gate: observability costs <= 2% on the Fig. 3.4 composite"),
    Command::new("serve", serve)
        .values(&[
            ("addr", "HOST:PORT"),
            CACHE,
            CACHE_DIR,
            ("workers", "N"),
            ("max-conns", "N"),
            ("tenant-inflight", "N"),
            ("procs", "N"),
            ("jobs", "N"),
            ("threshold", "T"),
        ])
        .bools(&["realistic"])
        .about("run the campaign service until killed"),
];

fn catalog(_: &CommonArgs) -> Result<bool, CliError> {
    let catalog = crate::core::CATALOG;
    outln!(
        "{:<32} {:<14} {:<22} {:<14} paper?",
        "property function",
        "paradigm",
        "expected property",
        "localized at"
    );
    outln!("{}", "-".repeat(100));
    for spec in catalog {
        outln!(
            "{:<32} {:<14} {:<22} {:<14} {}",
            spec.name,
            format!("{:?}", spec.paradigm),
            spec.expected_property.unwrap_or("(none)"),
            spec.localized_at,
            if spec.in_paper_prototype {
                "yes"
            } else {
                "ext"
            }
        );
    }
    outln!(
        "\n{} property functions ({} from the paper's prototype)",
        catalog.len(),
        catalog.iter().filter(|s| s.in_paper_prototype).count()
    );
    Ok(true)
}

fn generate_cmd(args: &CommonArgs) -> Result<bool, CliError> {
    let dir = args.pos(0).unwrap_or_default();
    let programs = generate::generate_all();
    std::fs::create_dir_all(dir).map_err(|e| failed(format!("cannot create {dir}: {e}")))?;
    for (name, src) in &programs {
        write_file(Path::new(dir).join(name), src)?;
    }
    outln!(
        "generated {} Rust single-property programs in {dir}",
        programs.len()
    );
    Ok(true)
}

/// Run the catalog property named by positional `idx`, with the
/// `key=value` parameters after it, in `session`. An unknown name, a bad
/// parameter or a root outside the session's world is a usage error.
fn property_trace(args: &CommonArgs, idx: usize, session: &Session) -> Result<Trace, CliError> {
    let name = args.pos(idx).unwrap_or_default();
    let spec = crate::core::catalog::find(name)
        .ok_or_else(|| CliError::Usage(format!("unknown property `{name}`; try `ats catalog`")))?;
    let kv: Vec<&str> = args.rest(idx + 1).iter().map(String::as_str).collect();
    let params = ParamValues::from_args(spec, &kv)
        .and_then(|params| params.check_root(session.opts().nprocs).map(|()| params))
        .map_err(|e| CliError::Usage(format!("{e}\n\n{}", generate::usage(spec))))?;
    session.run(spec.name, &params).map_err(failed)
}

fn run_cmd(args: &CommonArgs) -> Result<bool, CliError> {
    let session = args.session(Session::builder().procs(args.ranks("--procs", 8, 1)?))?;
    let trace = property_trace(args, 0, &session)?;
    let mut artifacts = Vec::new();
    if let Some(path) = args.value("save") {
        write_trace(&session, &trace, Path::new(path))?;
        errln!("saved ATSB trace to {path}");
        artifacts.push(PathBuf::from(path));
    }
    let report = session.analyze(&trace);
    outln!("{}", report.render(&trace));
    args.emit(&session, "run", &artifacts)?;
    Ok(true)
}

fn timeline_cmd(args: &CommonArgs) -> Result<bool, CliError> {
    let session = Session::default();
    let trace = property_trace(args, 0, &session)?;
    outln!("{}", crate::harness::timeline::render_text(&trace, 100));
    outln!("{}", session.analyze(&trace).render(&trace));
    Ok(true)
}

fn profile_cmd(args: &CommonArgs) -> Result<bool, CliError> {
    let trace = property_trace(args, 0, &Session::default())?;
    out!("{}", crate::harness::profile::render_profile(&trace));
    Ok(true)
}

fn phases_cmd(args: &CommonArgs) -> Result<bool, CliError> {
    let trace = property_trace(args, 0, &Session::default())?;
    let report = crate::analyzer::analyze_phases(&trace, 8);
    outln!(
        "windowed analysis: {} windows of {}",
        report.windows,
        report.window_len
    );
    for s in &report.series {
        let bars: String = s
            .severities
            .iter()
            .map(|v| match (v * 10.0) as usize {
                0 => '.',
                1..=2 => ':',
                3..=5 => '|',
                _ => '#',
            })
            .collect();
        outln!(
            "  {:<24} [{bars}] trend {:+.2}  severities {:?}",
            s.property,
            s.trend,
            s.severities
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect::<Vec<_>>()
        );
    }
    Ok(true)
}

fn asl_cmd(args: &CommonArgs) -> Result<bool, CliError> {
    let set_path = args.pos(0).unwrap_or_default();
    let src = std::fs::read_to_string(set_path)
        .map_err(|e| failed(format!("cannot read {set_path}: {e}")))?;
    let set = asl::parse(&src).map_err(|e| failed(format!("{set_path}: {e}")))?;
    let trace = property_trace(args, 1, &Session::default())?;
    let ex = crate::analyzer::extract::extract(&trace);
    let findings = set.evaluate(&ex, &trace).map_err(failed)?;
    outln!(
        "{} findings from {} declared properties:",
        findings.len(),
        set.properties().len()
    );
    for (name, total) in set.totals(&findings) {
        outln!("  {name:<28} total wait {total}");
    }
    Ok(true)
}

fn analyze_cmd(args: &CommonArgs) -> Result<bool, CliError> {
    let path = args.pos(0).unwrap_or_default();
    let session = args.session(Session::builder())?;
    let (trace, report) = crate::analyzer::analyze_path(path, session.analyzer_config())
        .map_err(|e| failed(format!("cannot read {path}: {e}")))?;
    if args.has("json") {
        outln!("{}", report.to_json());
    } else {
        outln!("{}", report.render(&trace));
    }
    args.emit(&session, "analyze", &[])?;
    Ok(true)
}

fn trace_dump(args: &CommonArgs) -> Result<bool, CliError> {
    let path = args.pos(0).unwrap_or_default();
    let out = std::io::BufWriter::new(std::io::stdout().lock());
    dump_trace(path, out).map_err(|e| {
        let err = crate::core::Error::from(e);
        failed(format!(
            "cannot dump {path}: {err} [{}]",
            err.kind().as_str()
        ))
    })?;
    Ok(true)
}

/// Stream the ATSB file at `path` block by block: the region and
/// communicator tables, then one line per event — location, time in ns,
/// kind and fields, with region names resolved.
fn dump_trace(path: &str, mut out: impl Write) -> Result<(), TraceIoError> {
    let file = std::fs::File::open(path)?;
    let mut br = BlockReader::new(std::io::BufReader::new(file))?;
    let regions = br.regions().to_vec();
    writeln!(out, "regions {}", regions.len())?;
    for (id, r) in regions.iter().enumerate() {
        writeln!(out, "  {id} {} {:?}", r.name, r.kind)?;
    }
    writeln!(out, "comms {}", br.comms().len())?;
    for c in br.comms() {
        writeln!(out, "  {} members {:?}", c.id, c.members)?;
    }
    writeln!(out, "events of {} locations", br.n_locations())?;
    let name = |r: RegionId| regions.get(r.0 as usize).map_or("?", |m| m.name.as_str());
    while let Some(block) = br.next_block()? {
        let loc = block.location();
        for e in block.events() {
            let t = e.time.0;
            match e.kind {
                EventKind::Enter { region } => {
                    writeln!(out, "{loc} {t} enter region={} {}", region.0, name(region))
                }
                EventKind::Exit { region } => {
                    writeln!(out, "{loc} {t} exit region={} {}", region.0, name(region))
                }
                EventKind::Send {
                    to,
                    comm,
                    tag,
                    bytes,
                } => writeln!(out, "{loc} {t} send to={to} comm={comm} tag={tag} bytes={bytes}"),
                EventKind::Recv {
                    from,
                    comm,
                    tag,
                    bytes,
                    posted,
                } => writeln!(
                    out,
                    "{loc} {t} recv from={from} comm={comm} tag={tag} bytes={bytes} posted={}",
                    posted.0
                ),
                EventKind::CollEnd {
                    op,
                    comm,
                    root,
                    seq,
                    bytes,
                    entered,
                } => writeln!(
                    out,
                    "{loc} {t} coll_end {op} comm={comm} root={} seq={seq} bytes={bytes} entered={}",
                    root.map_or("-".to_owned(), |r| r.to_string()),
                    entered.0
                ),
            }?;
        }
    }
    br.finish()?;
    out.flush()?;
    Ok(())
}

/// `ats trace gen`: emit a synthetic composite stress trace block by
/// block, so peak memory stays at one rank's events whatever the size.
fn trace_gen(args: &CommonArgs) -> Result<bool, CliError> {
    let path = args.pos(0).unwrap_or_default();
    let ranks = args.value_or("ranks", 64u64)?.clamp(2, u32::MAX as u64) as u32;
    let mb = args.value_or("mb", 32u64)?.max(1);
    let mut cfg = StressConfig::sized_mb(ranks, mb);
    cfg.inner = args.value_or("inner", cfg.inner)?.max(1);
    let file = std::fs::File::create(path).map_err(|e| cannot_write(path, e))?;
    let start = Instant::now();
    let bytes =
        write_stress(&cfg, std::io::BufWriter::new(file)).map_err(|e| cannot_write(path, e))?;
    let secs = start.elapsed().as_secs_f64();
    outln!(
        "{path}: {} ranks, {} events, {:.1} MB in {:.2} s ({:.0} MB/s)",
        cfg.ranks,
        cfg.events_total(),
        bytes as f64 / 1e6,
        secs,
        bytes as f64 / 1e6 / secs.max(1e-9),
    );
    Ok(true)
}

fn score(_: &CommonArgs) -> Result<bool, CliError> {
    let session = Session::builder().procs(8).build();
    let summary = correctness::score_catalog(&session).map_err(failed)?;
    out!("{}", summary.render());
    Ok(summary.all_correct())
}

/// E-over, the paper's chapter-2 procedure: run the validation suites
/// with and without instrumentation (results must match) and measure the
/// tool-side overhead with calibrated real work. A FAIL row fails the
/// command.
fn validate(args: &CommonArgs) -> Result<bool, CliError> {
    let nprocs = args.ranks("nprocs", 4, 1)?;
    outln!("=== E-over: semantics preservation + instrumentation overhead ===\n");
    outln!("validation suite ({nprocs} procs):");
    let mut all = true;
    let mut rows = |results: Vec<validation::KernelResult>| {
        for r in results {
            all &= r.passed();
            outln!(
                "  {:<18} plain={} instrumented={} outputs-equal={}  [{}]",
                r.name,
                r.correct_plain,
                r.correct_instrumented,
                r.outputs_equal,
                if r.passed() { "ok" } else { "FAIL" }
            );
        }
    };
    rows(validation::run_validation(nprocs));
    outln!("\nOpenMP validation suite (4 threads):");
    rows(validation::run_omp_validation(4));
    outln!("\noverhead (real calibrated work, 50 x 2ms steps):");
    let o = validation::measure_overhead(nprocs, VDur::from_millis(2), 50);
    outln!(
        "  uninstrumented {:.3}s, instrumented {:.3}s, slowdown {:.3}x, {} events",
        o.plain_secs,
        o.instrumented_secs,
        o.slowdown(),
        o.events
    );
    Ok(all)
}

fn resources(_: &CommonArgs) -> Result<bool, CliError> {
    out!("{}", crate::harness::resources::render());
    Ok(true)
}

fn apps(_: &CommonArgs) -> Result<bool, CliError> {
    for spec in crate::apps::collection() {
        outln!("{:<16} {}", spec.name, spec.description);
        outln!("{:<16}   structure: {}", "", spec.structure);
        outln!(
            "{:<16}   pathological mode shows: {}",
            "",
            spec.imbalanced_properties.join(", ")
        );
    }
    Ok(true)
}

/// `ats serve`: the campaign service over a read-write artifact store,
/// with observability always on (`GET /metrics` serves the session's
/// registry). Runs until killed.
fn serve(args: &CommonArgs) -> Result<bool, CliError> {
    let mut builder = Session::builder()
        .procs(args.ranks("--procs", 4, 1)?)
        .jobs(args.value_or("jobs", 0)?)
        .threshold(args.value_or("threshold", 0.005)?)
        .obs(ObsConfig::fresh())
        .cache(CacheMode::ReadWrite);
    if args.has("realistic") {
        builder = builder.realistic();
    }
    let session = args.session(builder)?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: args.value("addr").unwrap_or("127.0.0.1:7171").to_owned(),
        workers: args.value_or("workers", defaults.workers)?,
        max_conns: args.value_or("max-conns", defaults.max_conns)?,
        tenant_inflight: args.value_or("tenant-inflight", defaults.tenant_inflight)?,
        ..defaults
    };
    let handle =
        crate::serve::start(session, config).map_err(|e| failed(format!("cannot start: {e}")))?;
    outln!("ats-serve listening on http://{}", handle.addr());
    outln!("  POST /v1/analyze    one scenario spec line -> ats-report/1");
    outln!("  POST /v1/campaign   spec lines -> streamed ats-serve-row/1");
    outln!("  GET  /v1/artifacts/{{key}}/{{file}}");
    outln!("  GET  /metrics | /v1/version | /healthz");
    loop {
        std::thread::park();
    }
}
