//! Quickstart: build a progressive index over a column and watch it
//! converge while answering queries.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use std::time::Instant;

use progressive_indexes::index::budget::BudgetPolicy;
use progressive_indexes::index::cost_model::CostConstants;
use progressive_indexes::index::{Algorithm, RangeIndex};
use progressive_indexes::storage::Column;
use progressive_indexes::workloads::data;

fn main() {
    // A column of one million uniformly distributed integers — think of it
    // as a freshly loaded attribute a data scientist wants to explore.
    let n = 1_000_000;
    let column = Arc::new(Column::from_vec(data::uniform_random(n, 42)));

    // Measure the hardware constants once (the paper does this at start-up)
    // and give every query an indexing budget of 20% of a full scan.
    let constants = CostConstants::calibrate();
    let model = progressive_indexes::index::cost_model::CostModel::new(constants, n);
    let policy = BudgetPolicy::Adaptive(0.2 * model.t_scan());
    let mut index =
        Algorithm::Quicksort.build_with_constants(Arc::clone(&column), policy, constants);

    println!("progressive quicksort over {n} rows, budget = 0.2 x scan cost");
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>12}",
        "query", "time (µs)", "rows", "phase", "converged"
    );

    // The same analytical query, repeated: SELECT SUM(a) WHERE a BETWEEN ..
    let (low, high) = (250_000, 350_000);
    let mut query_number = 0u32;
    loop {
        query_number += 1;
        let start = Instant::now();
        let result = index.query(low, high);
        let elapsed = start.elapsed().as_micros();
        if query_number <= 10 || query_number.is_multiple_of(25) || index.is_converged() {
            println!(
                "{:<8} {:>12} {:>12} {:>14} {:>12}",
                query_number,
                elapsed,
                result.count,
                result.phase.label(),
                index.is_converged()
            );
        }
        if index.is_converged() {
            break;
        }
        if query_number > 10_000 {
            println!("did not converge within 10k queries (unexpected)");
            break;
        }
    }

    println!(
        "\nconverged after {query_number} queries; subsequent queries are answered from the B+-tree."
    );
}
