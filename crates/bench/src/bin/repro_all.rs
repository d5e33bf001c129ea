//! Regenerates every table and figure of the paper in one run, or one
//! artifact with a subcommand.
//! Usage: `repro_all [table1|table2|table3|fig1…fig6|ablation] [--trials N] [--seed S]`.
use certa_bench::Artifact;

fn main() {
    let cli = certa_bench::parse_repro_cli();
    let (trials, seed) = (cli.trials, cli.seed);
    if let Some(artifact) = cli.artifact {
        print!("{}", artifact.render(trials, seed));
        return;
    }
    println!("=== certa: full reproduction (trials = {trials}) ===\n");
    // Every artifact but the last, the ablation, which the full run caps
    // at 24 trials.
    let (ablation, rest) = Artifact::ALL.split_last().expect("ten artifacts");
    for artifact in rest {
        println!("{}", artifact.render(trials, seed));
    }
    print!("{}", ablation.render(trials.min(24), seed));
}
