//! Regenerates the paper's experiments: Tables 1–2, Figures 1–8 and
//! Corollary 2.18's size, round and stretch bounds, one named preset each.
//!
//! Usage: `experiments [--preset NAME,..] [--seed S] [--threads T]
//!                     [--smoke] [--n N] [--weights SPEC] [--store flat|compact]`
//!
//! `--preset table1,fig_paths` runs the named presets in the order given;
//! without it every preset runs, in the order of [`PRESETS`], each after a
//! line that names it. A preset's doc comment gives its experiment id
//! (`E-T1` for Table 1, `E-F3` for Figure 3, …) and the claim it checks;
//! each asserts that claim on its own output, so a broken guarantee fails
//! the run. The other switches are [`BenchCli`]'s shared dialect: each
//! preset keeps its own default seed, and only `stretch_audit` reads
//! `--smoke`, `--n`, `--weights` and `--store`.

mod ablations;
mod bounds;
mod figures;
mod harness;
mod tables;

use nas_bench::BenchCli;

/// A preset: its name and the experiment it runs.
type Preset = (&'static str, fn(&BenchCli));

/// Every preset, in the order a run without `--preset` takes.
const PRESETS: [Preset; 11] = [
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("fig_supercluster", figures::fig_supercluster),
    ("fig_rulingset", figures::fig_rulingset),
    ("fig_paths", figures::fig_paths),
    ("fig_stretch", figures::fig_stretch),
    ("size_scaling", bounds::size_scaling),
    ("round_scaling", bounds::round_scaling),
    ("local_vs_congest", tables::local_vs_congest),
    ("ablations", ablations::ablations),
    ("stretch_audit", bounds::stretch_audit),
];

/// The presets `--preset a,b` names, in that order; all of them without
/// the switch.
///
/// # Panics
///
/// Panics on an unknown name, listing the valid ones.
fn selected(cli: &BenchCli) -> Vec<Preset> {
    let Some(list) = cli.opt_str("--preset") else {
        return PRESETS.to_vec();
    };
    list.split(',')
        .map(|name| {
            *PRESETS
                .iter()
                .find(|(preset, _)| *preset == name)
                .unwrap_or_else(|| {
                    let valid: Vec<&str> = PRESETS.iter().map(|(preset, _)| *preset).collect();
                    panic!(
                        "--preset expects names from {}, got {name:?}",
                        valid.join(",")
                    )
                })
        })
        .collect()
}

fn main() {
    let cli = BenchCli::parse();
    let presets = selected(&cli);
    cli.init_pool();
    let named = cli.opt_str("--preset").is_none();
    for (name, run) in presets {
        if named {
            println!("### preset {name}");
        }
        run(&cli);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Vec<&'static str> {
        let cli = BenchCli::from_args(args.iter().copied());
        selected(&cli).into_iter().map(|(name, _)| name).collect()
    }

    #[test]
    fn preset_list_selects_exactly_those() {
        assert_eq!(
            names(&["--preset", "table1,fig_paths"]),
            ["table1", "fig_paths"]
        );
    }

    #[test]
    fn no_preset_selects_all_in_ci_order() {
        assert_eq!(
            names(&[]),
            [
                "table1",
                "table2",
                "fig_supercluster",
                "fig_rulingset",
                "fig_paths",
                "fig_stretch",
                "size_scaling",
                "round_scaling",
                "local_vs_congest",
                "ablations",
                "stretch_audit",
            ]
        );
    }

    #[test]
    #[should_panic(
        expected = "--preset expects names from table1,table2,fig_supercluster,fig_rulingset,\
                    fig_paths,fig_stretch,size_scaling,round_scaling,local_vs_congest,\
                    ablations,stretch_audit, got \"tabel2\""
    )]
    fn unknown_preset_panics_with_the_valid_names() {
        names(&["--preset", "table1,tabel2"]);
    }

    #[test]
    fn preset_names_are_unique() {
        let mut all: Vec<&str> = PRESETS.iter().map(|(name, _)| *name).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), PRESETS.len());
    }
}
