//! Run the ablation studies (doped init; FA proxy vs netlist cost).
//!
//! Usage: `cargo run -p pe-bench --release --bin ablations`.

use pe_bench::ablation;
use pe_bench::format::write_json;
use pe_bench::Knobs;
use pe_datasets::Dataset;

fn main() {
    let knobs = Knobs::from_env_or_exit();
    let doping: Vec<_> = [Dataset::BreastCancer, Dataset::Cardio, Dataset::RedWine]
        .iter()
        .map(|&d| ablation::doping(d, 32, 30, 0))
        .collect();
    println!("{}", ablation::render_doping(&doping));
    write_json("ablation_doping", &doping);

    let conc = ablation::fa_vs_netlist(Dataset::BreastCancer, 40, 0);
    println!("{}", ablation::render_concordance("BC", &conc));
    write_json("ablation_fa_vs_netlist", &conc);

    let objective: Vec<_> = [Dataset::BreastCancer, Dataset::RedWine]
        .iter()
        .map(|&d| ablation::objective(d, 40, 60, 0, knobs.thread_budget()))
        .collect();
    println!("{}", ablation::render_objective(&objective));
    write_json("ablation_objective", &objective);
}
