//! Regenerates every table and figure of the ODR paper's evaluation
//! (Section 6) as text, plus the design-choice ablations DESIGN.md calls
//! out.
//!
//! ```text
//! repro                 # everything, full 120 s runs
//! repro --quick         # everything, 8 s runs (smoke test)
//! repro fig1 fig9 tab2  # selected experiments
//! ```
//!
//! The ids are `EXPERIMENTS`; any other argument exits 2 and lists them.
//! Each `figNN_*` / `tabNN_*` function of the modules below renders one
//! experiment's rows, exactly the series the paper plots. Timing lives in
//! the repo's one benchmark (`BENCHMARK.json`, `benchmark/`), not here.

mod ablation;
mod micro;
mod study;
mod suite;
mod sweeps;

use odr_simtime::Duration;

/// Harness settings shared by every experiment.
#[derive(Clone, Copy, Debug)]
struct Settings {
    /// Simulated run length per configuration.
    duration: Duration,
    /// Base RNG seed.
    seed: u64,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            duration: Duration::from_secs(120),
            seed: 0x0D12_5EED,
        }
    }
}

impl Settings {
    /// Short-run settings for `repro --quick` and smoke tests.
    fn quick() -> Self {
        Settings {
            duration: Duration::from_secs(8),
            seed: 0x0D12_5EED,
        }
    }
}

/// Right-pads or truncates `s` to `width` columns.
fn pad(s: &str, width: usize) -> String {
    let mut out = String::with_capacity(width);
    for (i, c) in s.chars().enumerate() {
        if i >= width {
            break;
        }
        out.push(c);
    }
    while out.chars().count() < width {
        out.push(' ');
    }
    out
}

/// Every experiment id, in print order.
const EXPERIMENTS: &str = "fig1 fig3 fig4 fig5 fig6 fig7 tab2 fig9 fig10 fig11 fig12 fig13 \
                           fig14 fig15 ablations capacity sweeps";

/// Reads `--quick` and the selected ids (every id when none is named).
fn parse(args: &[String]) -> Result<(bool, Vec<&str>), String> {
    let ids = || EXPERIMENTS.split_whitespace();
    let mut quick = false;
    let mut selected = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            id if ids().any(|known| known == id) => selected.push(id),
            other => {
                return Err(format!(
                    "unknown argument {other}; experiment ids: {EXPERIMENTS}"
                ))
            }
        }
    }
    if selected.is_empty() {
        selected = ids().collect();
    }
    Ok((quick, selected))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, selected) = parse(&args).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        eprintln!("usage: repro [--quick] [id...]");
        std::process::exit(2)
    });
    let want = |id: &str| selected.contains(&id);

    let settings = if quick {
        Settings::quick()
    } else {
        Settings::default()
    };
    println!(
        "# ODR paper reproduction — {} s simulated per configuration, seed {:#x}\n",
        settings.duration.as_secs(),
        settings.seed
    );

    // Single-scenario analyses (Section 4).
    if want("fig1") {
        println!("{}", micro::fig01_fps_gap(&settings));
    }
    if want("fig3") {
        println!("{}", micro::fig03_regulation_fps(&settings));
    }
    if want("fig4") {
        println!("{}", micro::fig04_time_variation(&settings));
    }
    if want("fig5") {
        println!("{}", micro::fig05_timelines(&settings));
    }
    if want("fig6") {
        println!("{}", micro::fig06_mtp(&settings));
    }
    if want("fig7") {
        println!("{}", micro::fig07_dram(&settings));
    }

    // Full-grid evaluation (Section 6) — one sweep feeds all of these.
    let needs_suite = ["tab2", "fig9", "fig10", "fig11", "fig12", "fig13"]
        .iter()
        .any(|id| want(id));
    if needs_suite {
        eprintln!("running the full evaluation grid (192 simulations)...");
        let results = suite::run_full_suite(&settings);
        if want("tab2") {
            println!("{}", suite::tab02_fps_gaps(&results));
        }
        if want("fig9") {
            println!("{}", suite::fig09a_client_fps(&results));
            println!("{}", suite::fig09b_mtp(&results));
        }
        if want("fig10") {
            println!("{}", suite::fig10_fps_detail(&results));
        }
        if want("fig11") {
            println!("{}", suite::fig11_mtp_detail(&results));
        }
        if want("fig12") {
            println!("{}", suite::fig12_memory(&results));
        }
        if want("fig13") {
            println!("{}", suite::fig13_power(&results));
        }
        println!("{}", suite::bandwidth_note(&results));
    }

    // User study (Section 6.7).
    if want("fig14") || want("fig15") {
        let results = study::run_study(&settings);
        if want("fig14") {
            println!("{}", study::fig14_ratings(&results));
        }
        if want("fig15") {
            println!("{}", study::fig15_artifacts(&results));
        }
    }

    // Design ablations (DESIGN.md §5).
    if want("ablations") {
        println!("{}", ablation::all_ablations(&settings));
    }

    // Server-consolidation capacity (analytic; instant).
    if want("capacity") {
        println!("{}", suite::capacity_table());
    }

    // Parameter sweeps (crossover charts).
    if want("sweeps") {
        println!("{}", sweeps::sweep_bandwidth(&settings));
        println!("{}", sweeps::sweep_target(&settings));
        println!("{}", sweeps::sweep_loss(&settings));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn no_id_selects_every_experiment() {
        let all: Vec<&str> = EXPERIMENTS.split_whitespace().collect();
        assert_eq!(all.len(), 17);
        assert_eq!(parse(&argv("--quick")), Ok((true, all.clone())));
        assert_eq!(parse(&[]), Ok((false, all)));
    }

    #[test]
    fn named_ids_select_only_themselves() {
        let args = argv("fig9 tab2");
        assert_eq!(parse(&args), Ok((false, vec!["fig9", "tab2"])));
    }

    #[test]
    fn an_unknown_id_or_flag_is_an_error_listing_the_ids() {
        for bad in ["fig2", "--qiuck", "capacity --qiuck", "-q"] {
            let err = parse(&argv(bad)).expect_err(bad);
            assert!(err.contains(EXPERIMENTS), "{bad}: {err}");
            assert!(
                err.contains(bad.rsplit(' ').next().unwrap()),
                "{bad}: {err}"
            );
        }
    }
}
