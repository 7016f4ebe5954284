//! The `ats` binary: one entry point for the whole suite. `ats` with no
//! arguments lists the commands; `ats COMMAND --help` shows one
//! command's flags. See [`ats::cli`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ats::cli::run(&args));
}
