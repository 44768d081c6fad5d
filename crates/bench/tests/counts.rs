//! Exact work guard: every golden cell's dispatch count per event kind.
//!
//! The golden table (`golden.rs`) pins each cell's report digest, which
//! covers the total event count only. This table pins how those events
//! split by kind, so a change that moves or removes work (eliding
//! MemTicks, say) shows up as an exact diff, one line per cell. Counting
//! goes through the `trace` feature's dispatch hook:
//!
//! ```text
//! cargo test -p vip-bench --features vip-bench/trace --test counts
//! ```
//!
//! On a mismatch the test lists every differing cell, then prints the
//! whole table as Rust source. Paste it over `GOLDEN_COUNTS` only when the
//! change is meant to alter the work the simulator does, and give the
//! before and after counts in the change's description.

#![cfg(feature = "trace")]

use vip_bench::{RunSettings, Unit, GOLDEN_HORIZON_MS};
use vip_core::{Scheme, SimCell};

/// `(unit, scheme, counts)`. Counts follow `EventCounts` field order:
/// source, cpu_done, mem_tick, compute_done, sa_arrival, background,
/// rollback.
type Row = (&'static str, &'static str, [u64; 7]);

/// One row per golden cell, in `Unit::all()` × `Scheme::ALL` order.
const GOLDEN_COUNTS: &[Row] = &[
    ("A1", "Baseline", [5, 27, 253274, 48664, 0, 3, 0]),
    ("A1", "FrameBurst", [2, 10, 422350, 81160, 0, 3, 0]),
    ("A1", "IP-to-IP", [5, 17, 58615, 48664, 24332, 3, 0]),
    ("A1", "IP-to-IP w FB", [2, 8, 97705, 81160, 40580, 3, 0]),
    ("A1", "VIP", [2, 8, 97705, 81160, 40580, 3, 0]),
    ("A2", "Baseline", [9, 51, 315252, 54926, 0, 3, 0]),
    ("A2", "FrameBurst", [5, 14, 552520, 96645, 0, 3, 0]),
    ("A2", "IP-to-IP", [9, 29, 107215, 54926, 24486, 3, 0]),
    ("A2", "IP-to-IP w FB", [5, 11, 219205, 96645, 40875, 3, 0]),
    ("A2", "VIP", [5, 11, 219205, 96645, 40875, 3, 0]),
    ("A3", "Baseline", [3, 15, 12422, 3102, 0, 3, 0]),
    ("A3", "FrameBurst", [2, 9, 61430, 15350, 0, 3, 0]),
    ("A3", "IP-to-IP", [3, 11, 12166, 3102, 32, 3, 0]),
    ("A3", "IP-to-IP w FB", [2, 8, 60790, 15350, 80, 3, 0]),
    ("A3", "VIP", [2, 8, 60790, 15350, 80, 3, 0]),
    ("A4", "Baseline", [8, 50, 182007, 29970, 0, 3, 0]),
    ("A4", "FrameBurst", [6, 10, 82580, 13660, 0, 3, 0]),
    ("A4", "IP-to-IP", [8, 26, 59695, 29970, 15056, 3, 0]),
    ("A4", "IP-to-IP w FB", [6, 8, 27470, 13660, 6830, 3, 0]),
    ("A4", "VIP", [6, 8, 27470, 13660, 6830, 3, 0]),
    ("A5", "Baseline", [5, 27, 439113, 72964, 0, 3, 0]),
    ("A5", "FrameBurst", [2, 10, 732456, 121660, 0, 3, 0]),
    ("A5", "IP-to-IP", [5, 17, 147229, 72964, 36482, 3, 0]),
    ("A5", "IP-to-IP w FB", [2, 8, 244835, 121660, 60830, 3, 0]),
    ("A5", "VIP", [2, 8, 244835, 121660, 60830, 3, 0]),
    ("A6", "Baseline", [6, 44, 343383, 60956, 0, 3, 0]),
    ("A6", "FrameBurst", [6, 2, 0, 0, 0, 3, 0]),
    ("A6", "IP-to-IP", [6, 20, 48600, 60956, 36624, 3, 0]),
    ("A6", "IP-to-IP w FB", [6, 2, 0, 0, 0, 3, 0]),
    ("A6", "VIP", [6, 2, 0, 0, 0, 3, 0]),
    ("A7", "Baseline", [4, 22, 100753, 12216, 0, 3, 0]),
    ("A7", "FrameBurst", [2, 10, 367703, 30540, 0, 3, 0]),
    ("A7", "IP-to-IP", [4, 14, 24930, 12216, 6108, 3, 0]),
    ("A7", "IP-to-IP w FB", [2, 8, 61683, 30540, 15270, 3, 0]),
    ("A7", "VIP", [2, 8, 61683, 30540, 15270, 3, 0]),
    ("W1", "Baseline", [10, 52, 878215, 145928, 0, 3, 0]),
    ("W1", "FrameBurst", [4, 18, 1465376, 243320, 0, 3, 0]),
    ("W1", "IP-to-IP", [10, 32, 294461, 145928, 72964, 3, 0]),
    ("W1", "IP-to-IP w FB", [4, 14, 489644, 243320, 121660, 3, 0]),
    ("W1", "VIP", [4, 14, 489659, 243320, 121660, 3, 0]),
    ("W2", "Baseline", [15, 77, 846324, 109548, 0, 3, 0]),
    ("W2", "FrameBurst", [6, 26, 1495159, 182740, 0, 3, 0]),
    ("W2", "IP-to-IP", [15, 47, 220879, 109548, 54774, 3, 0]),
    ("W2", "IP-to-IP w FB", [6, 20, 367326, 182740, 91370, 3, 0]),
    ("W2", "VIP", [6, 20, 367312, 182740, 91370, 3, 0]),
    ("W3", "Baseline", [9, 47, 569904, 85180, 0, 3, 0]),
    ("W3", "FrameBurst", [4, 18, 1101296, 152200, 0, 3, 0]),
    ("W3", "IP-to-IP", [9, 29, 172159, 85180, 42590, 3, 0]),
    ("W3", "IP-to-IP w FB", [4, 14, 306518, 152200, 76100, 3, 0]),
    ("W3", "VIP", [4, 14, 306518, 152200, 76100, 3, 0]),
    ("W4", "Baseline", [13, 75, 657472, 102934, 0, 3, 0]),
    ("W4", "FrameBurst", [8, 18, 817027, 135320, 0, 3, 0]),
    ("W4", "IP-to-IP", [13, 41, 206931, 102934, 51538, 3, 0]),
    ("W4", "IP-to-IP w FB", [8, 14, 272293, 135320, 67660, 3, 0]),
    ("W4", "VIP", [8, 14, 272292, 135320, 67660, 3, 0]),
    ("W5", "Baseline", [13, 75, 435960, 78634, 0, 3, 0]),
    ("W5", "FrameBurst", [8, 18, 504746, 94820, 0, 3, 0]),
    ("W5", "IP-to-IP", [13, 41, 118310, 78634, 39388, 3, 0]),
    ("W5", "IP-to-IP w FB", [8, 14, 125166, 94820, 47410, 3, 0]),
    ("W5", "VIP", [8, 14, 125166, 94820, 47410, 3, 0]),
    ("W6", "Baseline", [12, 64, 327674, 58028, 0, 3, 0]),
    ("W6", "FrameBurst", [7, 21, 613952, 111995, 0, 3, 0]),
    ("W6", "IP-to-IP", [12, 38, 119381, 58028, 24518, 3, 0]),
    ("W6", "IP-to-IP w FB", [7, 17, 279995, 111995, 40955, 3, 0]),
    ("W6", "VIP", [7, 17, 279995, 111995, 40955, 3, 0]),
    ("W7", "Baseline", [11, 63, 766471, 126118, 0, 3, 0]),
    ("W7", "FrameBurst", [8, 10, 732456, 121660, 0, 3, 0]),
    ("W7", "IP-to-IP", [11, 35, 195829, 133920, 73106, 3, 0]),
    ("W7", "IP-to-IP w FB", [8, 8, 244835, 121660, 60830, 3, 0]),
    ("W7", "VIP", [8, 8, 244835, 121660, 60830, 3, 0]),
    ("W8", "Baseline", [14, 76, 808622, 127890, 0, 3, 0]),
    ("W8", "FrameBurst", [7, 22, 1409977, 218305, 0, 3, 0]),
    ("W8", "IP-to-IP", [14, 44, 254444, 127890, 60968, 3, 0]),
    ("W8", "IP-to-IP w FB", [7, 17, 464039, 218305, 101705, 3, 0]),
    ("W8", "VIP", [7, 17, 464033, 218305, 101705, 3, 0]),
];

fn render(row: Option<&Row>) -> String {
    row.map_or("(none)".to_string(), |(unit, scheme, counts)| {
        format!("({unit:?}, {scheme:?}, {counts:?}),")
    })
}

#[test]
fn golden_cells_dispatch_the_pinned_counts_per_kind() {
    let settings = RunSettings::with_ms(GOLDEN_HORIZON_MS);
    let mut counted: Vec<Row> = Vec::new();
    for unit in Unit::all() {
        for scheme in Scheme::ALL {
            let out = SimCell::new(settings.config(scheme), unit.flows(settings))
                .runner()
                .counted()
                .run();
            let c = out.counts.expect("counted run");
            let counts = [
                c.source,
                c.cpu_done,
                c.mem_tick,
                c.compute_done,
                c.sa_arrival,
                c.background,
                c.rollback,
            ];
            assert_eq!(
                counts.iter().sum::<u64>(),
                out.report.events,
                "{}/{}: the hook must see every dispatch",
                unit.label(),
                scheme.label()
            );
            counted.push((unit.label(), scheme.label(), counts));
        }
    }

    let differing: Vec<String> = (0..counted.len().max(GOLDEN_COUNTS.len()))
        .filter(|&i| counted.get(i) != GOLDEN_COUNTS.get(i))
        .map(|i| {
            format!(
                "  pinned  {}\n  counted {}",
                render(GOLDEN_COUNTS.get(i)),
                render(counted.get(i))
            )
        })
        .collect();
    let table: String = counted
        .iter()
        .map(|row| format!("    {}\n", render(Some(row))))
        .collect();
    assert!(
        differing.is_empty(),
        "{} cell(s) differ from GOLDEN_COUNTS:\n{}\n\nthe counted table:\n\n\
         const GOLDEN_COUNTS: &[Row] = &[\n{table}];\n",
        differing.len(),
        differing.join("\n"),
    );
}
