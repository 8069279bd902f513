//! Runs the table/figure experiments and saves each report under
//! `results/<name>.txt`. With no names it runs every experiment: the
//! one-command reproduction of the paper's entire evaluation section.
//! `all fig11 chaos` runs just those (in registry order).
//!
//! Experiments are independent deterministic simulations, so they run in
//! parallel (`--jobs N` or `OLYMPIAN_JOBS=N`, default: all cores) and the
//! reports are printed and saved in registry order — the output is
//! byte-identical to a serial run. Wall-clock diagnostics go to stderr.

use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!("usage: all [--jobs N] [NAME...]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut jobs = simpar::max_jobs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jobs" => {
                let Some(v) = args.get(i + 1) else {
                    return usage();
                };
                match v.parse::<usize>() {
                    Ok(n) if n > 0 => jobs = n,
                    _ => return usage(),
                }
                i += 2;
            }
            flag if flag.starts_with('-') => return usage(),
            name => {
                names.push(name);
                i += 1;
            }
        }
    }
    let experiments = match bench::figs::select(&names) {
        Ok(experiments) => experiments,
        Err(e) => {
            eprintln!("all: {e}");
            return usage();
        }
    };
    // Propagate the cap to the nested replication/sweep loops, which size
    // themselves via `simpar::max_jobs`.
    std::env::set_var(simpar::JOBS_ENV, jobs.to_string());

    let t0 = Instant::now();
    let results: Vec<(String, Duration)> = simpar::par_map_jobs(jobs, &experiments, |_, &(_, f)| {
        let t = Instant::now();
        (f(), t.elapsed())
    });
    let mut serial_equivalent = Duration::ZERO;
    for ((name, _), (out, dt)) in experiments.iter().zip(&results) {
        print!("{out}");
        let path = bench::save_result(&format!("{name}.txt"), out);
        eprintln!("({name} done in {dt:.1?}, saved to {})\n", path.display());
        serial_equivalent += *dt;
    }
    let elapsed = t0.elapsed();
    eprintln!(
        "all: {} experiments in {:.1?} with {} jobs (serial-equivalent {:.1?}, speedup {:.2}x)",
        experiments.len(),
        elapsed,
        jobs,
        serial_equivalent,
        serial_equivalent.as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
    );
    ExitCode::SUCCESS
}
