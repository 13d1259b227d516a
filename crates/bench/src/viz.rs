//! Figure rendering. The paper's evaluation artifacts are *figures*
//! (speedup and absolute performance curves), drawn from the text of the
//! harness's `results/*.csv` rows: a small dependency-free SVG chart
//! renderer, builders for each reproduced figure, and the table of which
//! CSV draws which ([`figures::FIGURES`]), read whenever the harness writes
//! or checks a CSV ([`crate::harness::Sink::emit`]).
//!
//! ```
//! use uts_bench::viz::chart::{Chart, Series};
//!
//! let chart = Chart {
//!     title: "demo".into(),
//!     x_label: "chunk size".into(),
//!     y_label: "Mnodes/s".into(),
//!     log2_x: true,
//!     series: vec![Series {
//!         name: "upc-distmem".into(),
//!         points: vec![(1.0, 60.0), (2.0, 70.0), (4.0, 69.0)],
//!     }],
//! };
//! let svg = chart.to_svg(640, 400);
//! assert!(svg.starts_with("<svg"));
//! ```

pub mod chart;
pub mod csv;
pub mod figures;
