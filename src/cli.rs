//! The `ats` command line: one parser for every subcommand.
//!
//! Each subcommand is a [`Command`] row naming the words that select it,
//! its positionals and the flags it accepts, split into flags that take a
//! value and flags that take none. [`CommonArgs::parse`] checks a command
//! line against that row: an unknown flag, a missing value, a missing or
//! surplus positional and a value that does not parse are usage errors
//! (exit code 2) naming the argument, and a boolean flag never swallows
//! the word after it. [`CommonArgs::session`] turns the parsed flags into
//! a configured [`Session`], and [`CommonArgs::emit`] writes the
//! observability outputs the flags asked for. A file the command cannot
//! write fails the run with exit code 1, naming the path.

use crate::harness::{Session, SessionBuilder};
use crate::mpi::MAX_NPROCS;
use crate::obs::ObsConfig;
use crate::runtime::Json;
use crate::trace::Trace;
use std::fmt::Display;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// `--cache off|ro|rw`: the result-cache policy.
pub const CACHE: (&str, &str) = ("cache", "off|ro|rw");
/// `--cache-dir DIR`: where the artifact store lives.
pub const CACHE_DIR: (&str, &str) = ("cache-dir", "DIR");
/// `--metrics PATH`: the run's own Prometheus metrics (`-` = stdout).
pub const METRICS: (&str, &str) = ("metrics", "PATH");
/// `--manifest`: a JSON run manifest beside every artifact.
pub const MANIFEST: &str = "manifest";

/// One `ats` subcommand.
pub struct Command {
    /// The words after `ats` that select the command, e.g. `figure 32`.
    pub name: &'static str,
    /// Positionals as the usage line shows them: `PROPERTY` is required,
    /// `[nprocs]` optional, and a last entry containing `...` takes any
    /// number of arguments.
    pub positionals: &'static [&'static str],
    /// Flags that take a value, each with its placeholder.
    pub values: &'static [(&'static str, &'static str)],
    /// Flags that take no value.
    pub bools: &'static [&'static str],
    /// What the command does, in one line.
    pub about: &'static str,
    /// Run the command: `Ok(false)` when it ran and a check failed.
    pub run: fn(&CommonArgs) -> Result<bool, CliError>,
}

impl Command {
    /// A command that takes no arguments.
    pub const fn new(name: &'static str, run: fn(&CommonArgs) -> Result<bool, CliError>) -> Self {
        Command {
            name,
            positionals: &[],
            values: &[],
            bools: &[],
            about: "",
            run,
        }
    }

    /// Builder: what the command does, in one line.
    pub const fn about(mut self, about: &'static str) -> Self {
        self.about = about;
        self
    }

    /// Builder: the positionals.
    pub const fn positionals(mut self, positionals: &'static [&'static str]) -> Self {
        self.positionals = positionals;
        self
    }

    /// Builder: the flags that take a value.
    pub const fn values(mut self, values: &'static [(&'static str, &'static str)]) -> Self {
        self.values = values;
        self
    }

    /// Builder: the flags that take none.
    pub const fn bools(mut self, bools: &'static [&'static str]) -> Self {
        self.bools = bools;
        self
    }

    /// The command's usage line.
    pub fn usage(&self) -> String {
        let mut line = format!("ats {}", self.name);
        for p in self.positionals {
            line += &format!(" {p}");
        }
        for (name, value) in self.values {
            line += &format!(" [--{name} {value}]");
        }
        for name in self.bools {
            line += &format!(" [--{name}]");
        }
        line
    }
}

/// Why a command did not finish.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// The command line is wrong (exit code 2).
    Usage(String),
    /// The command could not do its work: an output it cannot write, an
    /// input it cannot read (exit code 1).
    Failed(String),
}

/// A [`CliError::Failed`] from anything printable.
pub fn failed(msg: impl Display) -> CliError {
    CliError::Failed(msg.to_string())
}

fn usage(msg: impl Display) -> CliError {
    CliError::Usage(msg.to_string())
}

/// A command line checked against its [`Command`].
#[derive(Debug, Clone)]
pub struct CommonArgs {
    positionals: Vec<String>,
    /// Positional names, brackets stripped, for error messages.
    names: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
    bools: Vec<&'static str>,
}

impl CommonArgs {
    /// Check `args` (the words after the command's name) against `cmd`.
    pub fn parse(cmd: &Command, args: &[String]) -> Result<Self, CliError> {
        let mut out = CommonArgs {
            positionals: Vec::new(),
            names: cmd
                .positionals
                .iter()
                .map(|p| p.trim_matches(|c| c == '[' || c == ']' || c == '.'))
                .collect(),
            values: Vec::new(),
            bools: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                out.positionals.push(arg.clone());
                continue;
            };
            if let Some(b) = cmd.bools.iter().find(|b| **b == name) {
                out.bools.push(b);
            } else if let Some((flag, _)) = cmd.values.iter().find(|(f, _)| *f == name) {
                let value = it
                    .next()
                    .ok_or_else(|| usage(format!("flag --{name} needs a value")))?;
                out.values.push((flag, value.clone()));
            } else {
                return Err(usage(format!("unknown flag --{name}")));
            }
        }
        let variadic = cmd.positionals.last().is_some_and(|p| p.contains("..."));
        if !variadic {
            if let Some(extra) = out.positionals.get(cmd.positionals.len()) {
                return Err(usage(format!("unexpected argument `{extra}`")));
            }
        }
        let mut required = cmd.positionals.iter().filter(|p| !p.starts_with('['));
        if let Some(missing) = required.nth(out.positionals.len()) {
            return Err(usage(format!("missing {missing}")));
        }
        Ok(out)
    }

    /// Positional `idx` as given, if present.
    pub fn pos(&self, idx: usize) -> Option<&str> {
        self.positionals.get(idx).map(String::as_str)
    }

    /// Positional `idx` parsed, or `default` when absent. A value that
    /// does not parse is a usage error naming the positional.
    pub fn pos_or<T: FromStr>(&self, idx: usize, default: T) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        let name = self.names.get(idx).copied().unwrap_or("argument");
        match self.pos(idx) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| usage(format!("bad {name} `{v}`: {e}"))),
        }
    }

    /// The rank count `arg` (a positional's name, or `--flag`), or
    /// `default` when absent. Every rank count passes this one check: at
    /// least `min` (1, or the ranks the command's program needs) and at
    /// most [`MAX_NPROCS`], so a bad count is a usage error before any
    /// simulation starts.
    pub fn ranks(&self, arg: &str, default: usize, min: usize) -> Result<usize, CliError> {
        let n = match arg.strip_prefix("--") {
            Some(flag) => self.value_or(flag, default)?,
            None => {
                let idx = self.names.iter().position(|n| *n == arg);
                self.pos_or(idx.expect("a declared positional"), default)?
            }
        };
        if (min..=MAX_NPROCS).contains(&n) {
            return Ok(n);
        }
        let bound = format!("a rank count is at least {min} and at most {MAX_NPROCS}");
        Err(usage(format!("bad {arg} `{n}`: {bound}")))
    }

    /// The positionals from `idx` on (a variadic tail like `key=value`).
    pub fn rest(&self, idx: usize) -> &[String] {
        self.positionals.get(idx..).unwrap_or(&[])
    }

    /// A value flag as given, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// A value flag parsed, if present. A value that does not parse is a
    /// usage error naming the flag.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|e| usage(format!("bad --{name} `{v}`: {e}")))
            })
            .transpose()
    }

    /// A value flag parsed, or `default` when absent.
    pub fn value_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// Is a boolean flag present?
    pub fn has(&self, name: &str) -> bool {
        self.bools.contains(&name)
    }

    /// Did the command line ask for any observability output?
    fn obs_requested(&self) -> bool {
        self.value(METRICS.0).is_some() || self.has(MANIFEST)
    }

    /// Finish `builder` into a [`Session`], applying each session flag
    /// that is present: `--cache`, `--cache-dir`, and a registry of the
    /// session's own when `--metrics` or `--manifest` asks for
    /// observability. An absent flag leaves the builder's own setting
    /// alone.
    pub fn session(&self, builder: SessionBuilder) -> Result<Session, CliError> {
        let mut builder = builder;
        if let Some(mode) = self.parsed(CACHE.0)? {
            builder = builder.cache(mode);
        }
        if let Some(dir) = self.value(CACHE_DIR.0) {
            builder = builder.cache_dir(dir);
        }
        if self.obs_requested() {
            builder = builder.obs(ObsConfig::fresh());
        }
        Ok(builder.build())
    }

    /// Write the requested observability outputs: Prometheus text to the
    /// `--metrics` path (`-` = stdout), and under `--manifest` a JSON run
    /// manifest beside every path in `artifacts`, or as
    /// `<label>.manifest.json` in the working directory when the run
    /// produced no artifacts.
    pub fn emit(
        &self,
        session: &Session,
        label: &str,
        artifacts: &[PathBuf],
    ) -> Result<(), CliError> {
        if let (Some(path), Some(text)) = (self.value(METRICS.0), session.prometheus()) {
            if path == "-" {
                out!("{text}");
            } else {
                write_file(path, text)?;
                outln!("wrote {path}");
            }
        }
        if !self.has(MANIFEST) {
            return Ok(());
        }
        let Some(manifest) = session.manifest(label) else {
            return Ok(());
        };
        if artifacts.is_empty() {
            let path = format!("{label}.manifest.json");
            write_file(&path, manifest.to_json_pretty())?;
            outln!("wrote {path}");
        }
        for artifact in artifacts {
            let path = manifest.write_beside(artifact).map_err(|e| {
                failed(format!(
                    "cannot write a manifest beside {}: {e}",
                    artifact.display()
                ))
            })?;
            outln!("wrote {}", path.display());
        }
        Ok(())
    }
}

/// The failure to write `path`, naming it.
pub fn cannot_write(path: impl AsRef<Path>, e: impl Display) -> CliError {
    failed(format!("cannot write {}: {e}", path.as_ref().display()))
}

/// Write `contents` to `path`.
pub fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    std::fs::write(&path, contents).map_err(|e| cannot_write(path, e))
}

/// Write `trace` as the ATSB file `path`, counting its bytes into the
/// session's registry.
pub fn write_trace(session: &Session, trace: &Trace, path: &Path) -> Result<(), CliError> {
    let atsb = crate::trace::binfmt::encode(trace);
    write_file(path, &atsb)?;
    if let Some(obs) = session.obs() {
        obs.trace.binary_bytes_encoded.add(atsb.len() as u64);
    }
    Ok(())
}

/// Write `trace` as the ATSB file `dir/stem.atsb` and return the path.
pub fn write_trace_artifact(
    session: &Session,
    trace: &Trace,
    dir: &str,
    stem: &str,
) -> Result<PathBuf, CliError> {
    let path = Path::new(dir).join(format!("{stem}.atsb"));
    write_trace(session, trace, &path)?;
    Ok(path)
}

/// Write a bench document as `BENCH_<name>.json` in the working
/// directory, where CI collects it. The note goes to stderr, beside the
/// wall-clock lines, so a command's stdout stays reproducible.
pub fn write_bench_doc(name: &str, doc: &Json) -> Result<(), CliError> {
    let path = format!("BENCH_{name}.json");
    write_file(&path, doc.render_pretty())?;
    errln!("wrote {path}");
    Ok(())
}

/// Write a command's output to stdout. The std print macros panic when
/// stdout is closed (`ats catalog | head -1`), which ends the command
/// with a panic message and exit code 101. Here a failed write ends the
/// process with exit code 1 instead: quietly when the reader hung up
/// (`BrokenPipe`), naming the error otherwise. SIGPIPE stays ignored, so
/// `ats serve` still outlives a client that hangs up.
pub(crate) fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            errln!("ats: cannot write to stdout: {e}");
        }
        std::process::exit(1);
    }
}

/// Write a diagnostic to stderr. A closed stderr has no reader left to
/// tell, so a failed write is dropped.
pub(crate) fn write_stderr(args: std::fmt::Arguments<'_>) {
    let _ = std::io::stderr().write_fmt(args);
}

/// Run `ats ARGS...` and return the exit code: 0 on success, 1 when a
/// check failed or the command could not do its work, 2 on a bad command
/// line.
pub fn run(args: &[String]) -> i32 {
    let commands = crate::commands::COMMANDS;
    let found = commands.iter().find_map(|cmd| {
        let words = cmd.name.split(' ').count();
        let selected = args.len() >= words
            && args[..words]
                .iter()
                .map(String::as_str)
                .eq(cmd.name.split(' '));
        selected.then(|| (cmd, &args[words..]))
    });
    let Some((cmd, rest)) = found else {
        if !args.is_empty() {
            errln!("ats: unknown command `{}`", args.join(" "));
        }
        errln!("usage: ats COMMAND [ARGS]   (`ats COMMAND --help` lists its flags)\n");
        for cmd in commands {
            errln!(
                "  {:<16} {:<32} {}",
                cmd.name,
                cmd.positionals.join(" "),
                cmd.about
            );
        }
        return 2;
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        outln!("usage: {}\n{}", cmd.usage(), cmd.about);
        return 0;
    }
    match CommonArgs::parse(cmd, rest).and_then(|args| (cmd.run)(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(CliError::Usage(msg)) => {
            errln!("ats {}: {msg}\nusage: {}", cmd.name, cmd.usage());
            2
        }
        Err(CliError::Failed(msg)) => {
            errln!("ats {}: {msg}", cmd.name);
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMD: Command = Command {
        name: "test",
        positionals: &["[nprocs]", "[key=value...]"],
        values: &[CACHE, METRICS, ("trace-dir", "DIR"), ("save", "FILE")],
        bools: &[MANIFEST, "replay"],
        about: "a command line to parse",
        run: |_| Ok(true),
    };

    fn args(line: &[&str]) -> Result<CommonArgs, CliError> {
        let line: Vec<String> = line.iter().map(|s| (*s).to_owned()).collect();
        CommonArgs::parse(&CMD, &line)
    }

    #[test]
    fn parses_positionals_value_flags_and_bool_flags() {
        let a = args(&[
            "8",
            "--trace-dir",
            "out",
            "extrawork=0.02",
            "--manifest",
            "--save",
            "t.atsb",
        ])
        .unwrap();
        assert_eq!(a.rest(0), ["8", "extrawork=0.02"]);
        assert_eq!(a.pos_or(0, 0usize), Ok(8));
        assert_eq!(a.pos_or(5, 3usize), Ok(3));
        assert_eq!(a.value("trace-dir"), Some("out"));
        assert!(a.has("manifest"));
        assert!(!a.has("replay"));
        assert_eq!(a.value("save"), Some("t.atsb"));
        // A boolean flag leaves the next word a positional.
        let b = args(&["--replay", "4"]).unwrap();
        assert_eq!(b.pos_or(0, 0usize), Ok(4));
    }

    #[test]
    fn bad_command_lines_are_usage_errors_naming_the_argument() {
        let err = |line: &[&str]| match args(line) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{line:?} parsed: {other:?}"),
        };
        assert!(err(&["--svgdir", "x"]).contains("--svgdir"));
        assert!(err(&["8", "--save"]).contains("--save needs a value"));
        let a = args(&["eight", "--cache", "bogus"]).unwrap();
        let Err(CliError::Usage(msg)) = a.pos_or(0, 8usize) else {
            panic!("`eight` parsed as a count")
        };
        assert!(msg.contains("nprocs") && msg.contains("eight"), "{msg}");
        assert!(
            matches!(a.session(Session::builder()), Err(CliError::Usage(m)) if m.contains("bogus"))
        );
        let strict = Command {
            positionals: &["FILE"],
            ..CMD
        };
        let parse = |line: &[&str]| {
            let line: Vec<String> = line.iter().map(|s| (*s).to_owned()).collect();
            CommonArgs::parse(&strict, &line)
        };
        assert!(matches!(parse(&[]), Err(CliError::Usage(m)) if m == "missing FILE"));
        assert!(matches!(parse(&["a", "b"]), Err(CliError::Usage(m)) if m.contains("`b`")));
    }

    #[test]
    fn obs_is_off_unless_asked_for() {
        assert!(!args(&["8"]).unwrap().obs_requested());
        assert!(args(&["--manifest"]).unwrap().obs_requested());
        assert!(args(&["--metrics", "-"]).unwrap().obs_requested());
        let session = args(&["8"]).unwrap().session(Session::builder().procs(2));
        assert!(session.unwrap().obs().is_none());
    }

    #[test]
    fn session_with_manifest_flag_records() {
        let a = args(&["--manifest"]).unwrap();
        let session = a.session(Session::builder().procs(2)).unwrap();
        assert!(session.obs().is_some());
    }
}
