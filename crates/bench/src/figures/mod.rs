//! The artifact registry. Each [`Artifact`] runs one figure, table,
//! micro-experiment, ablation or whole-stack report at full size and
//! returns a [`Run`]: its printed table, its `results/` files and its
//! typed rows. Each [`Shape`] is a claim of the paper (who wins, where
//! the crossover falls) or a report invariant as a predicate over those
//! rows, defined next to its artifact; the paper's claims are also
//! asserted on smaller sweeps by `tests/paper_claims.rs`. A shape the
//! model does not reproduce sits in [`DEVIATIONS`] with its cause.
//!
//! [`cli`] is the `figures` binary: `full` writes every artifact,
//! `<name>…` writes the named ones, and `check` requires every committed
//! `results/` file to be byte-identical to a rerun. Every mode judges
//! the shapes of the artifacts it ran. Artifacts fan out on
//! [`simkit::par::run_indexed`].

use std::any::Any;
use std::fmt::Debug;
use std::fs;
use std::process::ExitCode;

pub mod model;
pub mod net;
pub mod offload;
pub mod report;
pub mod server;

/// What one artifact run produces: its printed table, `(file under
/// results/, contents)` pairs, and its typed rows for the [`Shape`]s.
pub struct Run {
    pub table: String,
    pub files: Vec<(&'static str, String)>,
    pub rows: Box<dyn Any + Send>,
}

impl Run {
    /// A run with one CSV file of `lines` under `header`, printed as a
    /// table.
    fn csv(
        title: &str,
        file: &'static str,
        header: &str,
        lines: Vec<String>,
        rows: impl Any + Send,
    ) -> Run {
        Run {
            table: csv_table(title, header, &lines),
            files: vec![(file, csv(header, &lines))],
            rows: Box::new(rows),
        }
    }
}

/// A CSV file: the header line, then one line per row.
fn csv(header: &str, lines: &[String]) -> String {
    lines
        .iter()
        .fold(format!("{header}\n"), |f, l| f + l + "\n")
}

/// CSV `lines` under `header` as a column-aligned table.
fn csv_table(title: &str, header: &str, lines: &[String]) -> String {
    let cells: Vec<Vec<String>> = lines
        .iter()
        .map(|l| l.split(',').map(String::from).collect())
        .collect();
    crate::table(title, &header.split(',').collect::<Vec<_>>(), &cells)
}

/// One paper artifact: its registry name (also the `figures <name>`
/// argument) and its full-size run.
pub type Artifact = (&'static str, fn() -> Run);

/// Why a shape fails, with the rows that make it fail.
pub type Verdict = Result<(), String>;

/// `Ok` when every row holds, else the first row that does not.
pub fn all<T: Debug>(rows: impl IntoIterator<Item = T>, holds: impl Fn(&T) -> bool) -> Verdict {
    match rows.into_iter().find(|r| !holds(r)) {
        Some(r) => Err(format!("{r:?}")),
        None => Ok(()),
    }
}

/// One claim of the paper and its predicate over the rows of the
/// artifacts that ran (`None` when one it reads did not run).
pub type Shape = (&'static str, fn(&Ran) -> Option<Verdict>);

/// The typed rows of the artifacts one invocation ran.
pub struct Ran(Vec<(&'static str, Box<dyn Any + Send>)>);

impl Ran {
    /// The rows of `artifact`, if it ran and its rows are a `T`.
    pub fn rows<T: 'static>(&self, artifact: &str) -> Option<&T> {
        let (_, rows) = self.0.iter().find(|(name, _)| *name == artifact)?;
        rows.downcast_ref()
    }

    /// The rows of `artifact`, if it ran and its rows are a `Vec<T>`.
    pub fn list<T: 'static>(&self, artifact: &str) -> Option<&[T]> {
        self.rows::<Vec<T>>(artifact).map(Vec::as_slice)
    }
}

const FIG02: &str = "fig02_smartnic_drops";
const FIG03: &str = "fig03_https_membw";
const FIG09: &str = "fig09_cas_trace";
const FIG10: &str = "fig10_scratchpad";
const FIG11: &str = "fig11_tls_offload";
const FIG12: &str = "fig12_compression_offload";
const FIG13: &str = "fig13_design_space";
const TABLE1: &str = "table1_corun";
const SLACK: &str = "micro_slack";
const POWER: &str = "micro_areapower";
const SCRATCHPAD: &str = "ablate_scratchpad";
const CUCKOO: &str = "ablate_cuckoo";
const WINDOW: &str = "ablate_window";
const ORDERED: &str = "ablate_ordered";
const REPORT: &str = "run_report";
const DIFFERENTIAL: &str = "backend_differential";

/// Every artifact, slowest first so a two-worker fan-out ends together
/// (the run report fans its own entries out over every worker; fig11
/// alone takes about as long as the paper's other artifacts).
pub const ARTIFACTS: [Artifact; 16] = [
    (REPORT, report::run_report),
    (FIG11, server::fig11),
    (FIG12, server::fig12),
    (FIG02, net::fig02),
    (FIG03, server::fig03),
    (FIG09, offload::fig09),
    (FIG10, offload::fig10),
    (FIG13, net::fig13),
    (TABLE1, server::table1),
    (SLACK, offload::micro_slack),
    (POWER, model::micro_areapower),
    (SCRATCHPAD, offload::ablate_scratchpad),
    (CUCKOO, model::ablate_cuckoo),
    (WINDOW, model::ablate_window),
    (ORDERED, offload::ablate_ordered),
    (DIFFERENTIAL, report::backend_differential),
];

/// Every claim shape, in paper order and then the reports' invariants,
/// named `<artifact>: <predicate>`; each predicate's doc comment states
/// the claim.
pub const SHAPES: [Shape; 22] = [
    ("fig02: smartnic_fades", |r| {
        r.rows(FIG02).map(net::smartnic_fades)
    }),
    ("fig03: https_amplifies_dram", |r| {
        r.list(FIG03).map(server::https_amplifies_dram)
    }),
    ("fig09: reads_ascend", |r| {
        r.rows(FIG09).map(offload::reads_ascend)
    }),
    ("fig10: occupancy_tracks_llc", |r| {
        r.list(FIG10).map(offload::occupancy_tracks_llc)
    }),
    ("fig11: smartdimm_wins_tls", |r| {
        r.list(FIG11).map(server::smartdimm_wins_tls)
    }),
    ("fig11: smartdimm_cuts_tls_dram", |r| {
        r.list(FIG11).map(server::smartdimm_cuts_tls_dram)
    }),
    ("fig11: tls_crossovers", |r| {
        r.list(FIG11).map(server::tls_crossovers)
    }),
    ("fig12: smartdimm_wins_compression", |r| {
        r.list(FIG12).map(server::smartdimm_wins_compression)
    }),
    ("fig12: dwarfs_tls", |r| {
        Some(server::dwarfs_tls(r.list(FIG11)?, r.list(FIG12)?))
    }),
    ("fig12: saves_more_dram", |r| {
        Some(server::saves_more_dram(r.list(FIG11)?, r.list(FIG12)?))
    }),
    ("fig13: smartnic_loses_edge", |r| {
        r.rows(FIG13).map(net::smartnic_loses_edge)
    }),
    ("table1: least_nginx_slowdown", |r| {
        r.list(TABLE1).map(server::least_nginx_slowdown)
    }),
    ("table1: least_mcf_slowdown", |r| {
        r.list(TABLE1).map(server::least_mcf_slowdown)
    }),
    ("micro_slack: exceeds_1us", |r| {
        r.rows(SLACK).map(offload::slack_exceeds_1us)
    }),
    ("micro_areapower: matches_paper", |r| {
        r.rows(POWER).map(model::matches_paper_power)
    }),
    ("ablate_scratchpad: only_below_2048", |r| {
        r.list(SCRATCHPAD).map(offload::only_below_2048)
    }),
    ("ablate_cuckoo: sound_at_3x", |r| {
        r.list(CUCKOO).map(model::cuckoo_sound_at_3x)
    }),
    ("ablate_window: window_trade_off", |r| {
        r.rows(WINDOW).map(model::window_trade_off)
    }),
    ("ablate_ordered: fence_adds_little", |r| {
        r.list(ORDERED).map(offload::fence_adds_little)
    }),
    ("run_report: no_bank_desyncs", |r| {
        r.rows::<String>(REPORT).map(|d| report::no_bank_desyncs(d))
    }),
    ("run_report: covers_every_stat_surface", |r| {
        (r.rows::<String>(REPORT)).map(|d| report::covers_every_stat_surface(d))
    }),
    ("backend_differential: tiers_agree_functionally", |r| {
        r.list(DIFFERENTIAL).map(report::tiers_agree_functionally)
    }),
];

/// Shapes the model does not reproduce today, each with its cause.
/// `check` fails when one of these starts to hold, so the change that
/// mends it must also delete its entry.
pub const DEVIATIONS: [(&str, &str); 2] = [
    (
        "table1: least_nginx_slowdown",
        "the solo run's copies take the batched page copy (one pipelined DRAM \
         latency per 4 KB page) while a co-runner forces the per-line path, so \
         SmartDIMM's solo request costs 11 510 cycles and its co-run one 24 005: \
         the slowdown measures two timing models (ROADMAP: \"One timing model per copy\")",
    ),
    (
        "ablate_ordered: fence_adds_little",
        "unordered copies take the batched page copy and ordered ones cannot, so \
         the 56-59% overhead compares two timing models, not fenced and \
         unfenced copies (ROADMAP: \"One timing model per copy\")",
    ),
];

/// Prints the verdict of every shape whose artifacts ran and returns the
/// problems: a failing shape not in [`DEVIATIONS`], a listed deviation
/// that holds, or (when all ran) a shape that could not be judged.
pub fn judge(ran: &Ran, complete: bool) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, holds) in SHAPES {
        let cause = DEVIATIONS.iter().find(|(n, _)| *n == name).map(|d| d.1);
        match (holds(ran), cause) {
            (None, _) if complete => problems.push(format!("shape not judged: {name}")),
            (None, _) => {}
            (Some(Ok(())), None) => println!("[holds]     {name}"),
            (Some(Err(why)), Some(cause)) => {
                println!("[deviation] {name}\n    {why}\n    cause: {cause}")
            }
            (Some(Err(why)), None) => problems.push(format!("shape fails: {name}: {why}")),
            (Some(Ok(())), Some(_)) => problems.push(format!(
                "listed deviation now holds; delete it from DEVIATIONS: {name}"
            )),
        }
    }
    problems
}

/// Where `committed` and `computed` first differ, or `None` when they
/// are byte-identical.
fn first_difference(committed: &str, computed: &str) -> Option<String> {
    if committed == computed {
        return None;
    }
    let (mut a, mut b) = (committed.lines(), computed.lines());
    (1..).find_map(|line| match (a.next(), b.next()) {
        (Some(x), Some(y)) if x == y => None,
        (x, y) => {
            let show = |l: Option<&str>| l.map_or("<end>".into(), |l| format!("{l:.100}"));
            Some(format!(
                "line {line}: committed {} / computed {}",
                show(x),
                show(y)
            ))
        }
    })
}

/// The `figures` binary: `full`, `check`, or artifact names.
pub fn cli(args: &[String]) -> ExitCode {
    let check = args == ["check"];
    let picked: Vec<Artifact> = match args {
        [mode] if mode == "full" || check => ARTIFACTS.to_vec(),
        names => names
            .iter()
            .filter_map(|n| ARTIFACTS.iter().find(|a| a.0 == n).copied())
            .collect(),
    };
    if picked.is_empty() || picked.len() < args.len() {
        eprintln!("usage: figures full | figures check | figures <artifact>...");
        return ExitCode::FAILURE;
    }
    let complete = picked.len() == ARTIFACTS.len();
    let workers = simkit::par::available_workers();
    let (runs, _) = simkit::par::run_indexed(workers, picked.clone(), |_, (_, run)| run());

    let dir = crate::results_dir();
    let (mut problems, mut rows) = (Vec::new(), Vec::new());
    for ((name, _), run) in picked.iter().zip(runs) {
        print!("{}", run.table);
        for (file, contents) in run.files {
            let path = dir.join(file);
            if !check {
                fs::write(&path, &contents).expect("write result file");
                println!("[written]   {}", path.display());
            } else if let Some(diff) =
                first_difference(&fs::read_to_string(&path).unwrap_or_default(), &contents)
            {
                problems.push(format!("results/{file} differs at {diff}"));
            } else {
                println!("[same]      results/{file}");
            }
        }
        rows.push((*name, run.rows));
    }

    println!();
    problems.extend(judge(&Ran(rows), complete));
    for p in &problems {
        eprintln!("[FAIL]      {p}");
    }
    if problems.is_empty() {
        println!("\nfigures: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_deviations_name_shapes() {
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
        names.extend(SHAPES.iter().map(|s| s.0));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate artifact or shape name");
        for (name, _) in DEVIATIONS {
            assert!(SHAPES.iter().any(|s| s.0 == name), "{name}");
        }
    }

    #[test]
    fn shapes_of_artifacts_that_did_not_run_are_skipped() {
        assert!(judge(&Ran(Vec::new()), false).is_empty());
        assert_eq!(judge(&Ran(Vec::new()), true).len(), SHAPES.len());
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(
            first_difference("a\nb\n", "a\nc\n").as_deref(),
            Some("line 2: committed b / computed c")
        );
        assert_eq!(
            first_difference("a\n", "a\nb\n").as_deref(),
            Some("line 2: committed <end> / computed b")
        );
    }

    #[test]
    fn csv_runs_print_their_file() {
        let run = Run::csv("t", "f.csv", "a,b", vec!["1,22".into()], ());
        assert_eq!(run.files, vec![("f.csv", "a,b\n1,22\n".to_string())]);
        assert_eq!(run.table, "\n=== t ===\na   b\n1  22\n");
    }
}
