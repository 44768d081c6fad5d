//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures --exp all                # everything, in paper order
//! figures --exp fig15 --ms 500    # one figure, custom duration
//! figures --exp table1|table2|table3|fig2|fig3|fig5|fig6|fig14|fig15|
//!               fig16|fig17|fig18|ablations
//! ```

use vip_bench::experiments::*;
use vip_bench::{Matrix, RunSettings};

struct Args {
    exp: String,
    settings: RunSettings,
}

fn parse_args() -> Args {
    let args =
        vip_bench::cli::Args::from_env("usage: figures [--exp <name>|all] [--ms N] [--seed N]");
    let default = RunSettings::default();
    let ms = args.ms("--ms", default.duration.as_ns() / 1_000_000);
    Args {
        exp: args.get("--exp").unwrap_or_else(|| "all".into()),
        settings: RunSettings {
            duration: desim::SimDelta::from_ms(ms),
            seed: args.num("--seed", default.seed),
        },
    }
}

fn section(title: &str) {
    println!("\n=== {title} ===");
}

fn print_tables() {
    section("Table 1: Applications and their IP flows");
    print!("{}", tables::table1().render());
    section("Table 2: Multiple-application workloads");
    print!("{}", tables::table2().render());
    section("Table 3: Platform details");
    print!("{}", tables::table3().render());
}

fn print_fig2(s: RunSettings) {
    section("Fig 2: CPU active time, energy, interrupts vs #apps (baseline)");
    print!("{}", fig2::render(&fig2::rows(s)).render());
}

fn print_fig3(s: RunSettings) {
    section("Fig 3: memory as the bottleneck (baseline, 4K players)");
    let rows = fig3::rows(s);
    print!("{}", fig3::render(&rows).render());
    println!("\nFig 3d: 1 ms windows per bandwidth bin (fraction of peak)");
    print!("{}", fig3::render_hist(&rows).render());
}

fn print_fig5() {
    section("Fig 5: time between taps, Flappy Bird (20 players x 10 min)");
    let f = fig5::study(20, 10, 7);
    print!("{}", fig5::render(&f).render());
    println!(
        "taps: {}, fraction of gaps > 0.5 s: {:.1}%",
        f.taps,
        f.frac_above_half_sec * 100.0
    );
}

fn print_fig6() {
    section("Fig 6: Fruit Ninja burstability (20 players x 10 min)");
    let f = fig6::study(20, 10, 11);
    print!("{}", fig6::render_6a(&f).render());
    println!("\nFig 6b: burstable frames by maximal run length");
    print!("{}", fig6::render_6b(&f).render());
}

fn print_fig14(s: RunSettings) {
    section("Fig 14a: flow time vs per-lane buffer size (VIP, 4K player)");
    print!("{}", fig14::render_14a(&fig14::rows(s)).render());
    section("Fig 14b: buffer energy & area (cacti-lite)");
    print!("{}", fig14::render_14b().render());
}

fn print_matrix_fig(matrix: &Matrix, which: u32) {
    match which {
        15 => {
            section("Fig 15: normalized energy per frame");
            print!("{}", fig15::render(&fig15::rows(matrix)).render());
        }
        16 => {
            section("Fig 16: CPU savings of frame bursts");
            print!("{}", fig16::render(&fig16::rows(matrix)).render());
        }
        17 => {
            section("Fig 17: normalized flow time per frame");
            print!("{}", fig17::render(&fig17::rows(matrix)).render());
        }
        18 => {
            section("Fig 18: QoS violations (frame drops)");
            print!("{}", fig18::render(&fig18::rows(matrix)).render());
        }
        _ => unreachable!("known figure"),
    }
}

fn main() {
    let args = parse_args();
    let s = args.settings;
    let needs_matrix = matches!(
        args.exp.as_str(),
        "all" | "fig15" | "fig16" | "fig17" | "fig18" | "check"
    );
    let matrix = if needs_matrix {
        eprintln!(
            "running the 15-unit x 5-scheme matrix ({:.0} ms each)...",
            s.duration.as_ms()
        );
        Some(Matrix::run(s))
    } else {
        None
    };

    match args.exp.as_str() {
        "table1" | "table2" | "table3" | "tables" => print_tables(),
        "fig2" => print_fig2(s),
        "fig3" => print_fig3(s),
        "fig5" => print_fig5(),
        "fig6" => print_fig6(),
        "fig14" => print_fig14(s),
        "fig15" => print_matrix_fig(matrix.as_ref().expect("matrix"), 15),
        "fig16" => print_matrix_fig(matrix.as_ref().expect("matrix"), 16),
        "fig17" => print_matrix_fig(matrix.as_ref().expect("matrix"), 17),
        "fig18" => print_matrix_fig(matrix.as_ref().expect("matrix"), 18),
        "ablations" => {
            section("Ablations (DESIGN.md section 6)");
            print!("{}", ablations::render_all(s));
        }
        "check" => {
            section("Validation: paper claims vs reproduction");
            let claims = check::claims_with_matrix(matrix.as_ref().expect("matrix"), s);
            print!("{}", check::render(&claims).render());
            let failed = claims.iter().filter(|c| !c.holds()).count();
            println!(
                "\n{} of {} claims hold",
                claims.len() - failed,
                claims.len()
            );
            if failed > 0 {
                std::process::exit(1);
            }
        }
        "all" => {
            print_tables();
            print_fig2(s);
            print_fig3(s);
            print_fig5();
            print_fig6();
            print_fig14(s);
            let m = matrix.as_ref().expect("matrix");
            for fig in [15, 16, 17, 18] {
                print_matrix_fig(m, fig);
            }
            section("Ablations (DESIGN.md section 6)");
            print!("{}", ablations::render_all(s));
            section("Validation: paper claims vs reproduction");
            let claims = check::claims_with_matrix(m, s);
            print!("{}", check::render(&claims).render());
            let failed = claims.iter().filter(|c| !c.holds()).count();
            println!(
                "\n{} of {} claims hold",
                claims.len() - failed,
                claims.len()
            );
        }
        other => {
            eprintln!("unknown experiment: {other}");
            eprintln!(
                "known: tables table1 table2 table3 fig2 fig3 fig5 fig6 fig14 \
                 fig15 fig16 fig17 fig18 ablations check all"
            );
            std::process::exit(2);
        }
    }
}
