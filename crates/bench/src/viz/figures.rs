//! Builders mapping harness CSVs to the paper's figures, and [`FIGURES`],
//! the one table of which CSV draws which figure.

use std::collections::BTreeMap;

use crate::viz::chart::{Chart, Series};
use crate::viz::csv::{parse, Record};

/// A figure drawn from the rows of one CSV.
pub type Builder = fn(&[Record]) -> Chart;

/// Every committed figure: `(csv stem, figure name, builder)`, so that
/// `results/<stem>.csv` draws `results/figures/<name>.svg`. Each builder
/// reads only virtual columns, so a figure is as reproducible as its CSV.
pub const FIGURES: &[(&str, &str, Builder)] = &[
    ("fig4", "fig4_performance", fig4_performance),
    ("fig4", "fig4_speedup", fig4_speedup),
    ("fig5_xl", "fig5_speedup", fig5_speedup),
    ("fig5_xl", "fig5_performance", fig5_performance),
    ("fig5_xxl", "fig5_xxl_speedup", fig5_speedup),
    ("fig6", "fig6_speedup", fig6_speedup),
    ("scale_eff", "scale_eff", scale_eff),
    ("dag_sweep", "dag_sweep_throughput", dag_sweep_throughput),
    ("dag_sweep", "dag_sweep_steal_utilisation", dag_sweep_steal_utilisation),
];

/// The figures of `results/<stem>.csv`, drawn from its text at 760×460:
/// `(figure name, SVG)`, none for a CSV [`FIGURES`] does not name.
pub fn render(stem: &str, csv: &str) -> Result<Vec<(&'static str, String)>, String> {
    let figures: Vec<_> = FIGURES.iter().filter(|f| f.0 == stem).collect();
    let rows = if figures.is_empty() { Vec::new() } else { parse(csv)? };
    Ok(figures.iter().map(|&&(_, name, build)| (name, build(&rows).to_svg(760, 460))).collect())
}

/// Group records into per-algorithm series of (x_col, y_col).
fn series_by_algorithm(rows: &[Record], x_col: &str, y_col: &str) -> Vec<Series> {
    let mut by_alg: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for r in rows {
        let (Some(alg), Some(x), Some(y)) = (r.get("algorithm"), r.num(x_col), r.num(y_col))
        else {
            continue;
        };
        by_alg.entry(alg.to_string()).or_default().push((x, y));
    }
    by_alg
        .into_iter()
        .map(|(name, points)| Series { name, points })
        .collect()
}

/// Figure 4: absolute performance vs chunk size (one line per label).
pub fn fig4_performance(rows: &[Record]) -> Chart {
    Chart {
        title: "Figure 4: performance vs chunk size (256 threads, Kitty Hawk model)".into(),
        x_label: "chunk size k".into(),
        y_label: "Mnodes/s".into(),
        log2_x: true,
        series: series_by_algorithm(rows, "chunk", "mnodes_per_sec"),
    }
}

/// Figure 4 companion: speedup vs chunk size.
pub fn fig4_speedup(rows: &[Record]) -> Chart {
    Chart {
        title: "Figure 4: speedup vs chunk size (256 threads, Kitty Hawk model)".into(),
        x_label: "chunk size k".into(),
        y_label: "speedup".into(),
        log2_x: true,
        series: series_by_algorithm(rows, "chunk", "speedup"),
    }
}

/// Figure 5: speedup vs processors.
pub fn fig5_speedup(rows: &[Record]) -> Chart {
    Chart {
        title: "Figure 5: speedup vs processors (Topsail model)".into(),
        x_label: "processors".into(),
        y_label: "speedup".into(),
        log2_x: true,
        series: series_by_algorithm(rows, "threads", "speedup"),
    }
}

/// Figure 5 companion: absolute performance vs processors.
pub fn fig5_performance(rows: &[Record]) -> Chart {
    Chart {
        title: "Figure 5: performance vs processors (Topsail model)".into(),
        x_label: "processors".into(),
        y_label: "Mnodes/s".into(),
        log2_x: true,
        series: series_by_algorithm(rows, "threads", "mnodes_per_sec"),
    }
}

/// Figure 6: speedup vs processors on the Altix.
pub fn fig6_speedup(rows: &[Record]) -> Chart {
    Chart {
        title: "Figure 6: speedup on the SGI Altix 3700 model".into(),
        x_label: "processors".into(),
        y_label: "speedup".into(),
        log2_x: true,
        series: series_by_algorithm(rows, "threads", "speedup"),
    }
}

/// One series per `(workload, algorithm)` pair from the `dag_sweep` CSV,
/// restricted to chunk `k` (the sweep runs several), mapping (x_col, y_col).
fn dag_series(rows: &[Record], x_col: &str, y_col: &str, k: f64) -> Vec<Series> {
    let mut by_key: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for r in rows {
        let (Some(w), Some(alg), Some(chunk), Some(x), Some(y)) = (
            r.get("workload"),
            r.get("algorithm"),
            r.num("chunk"),
            r.num(x_col),
            r.num(y_col),
        ) else {
            continue;
        };
        if chunk != k {
            continue;
        }
        by_key.entry(format!("{w}/{alg}")).or_default().push((x, y));
    }
    by_key
        .into_iter()
        .map(|(name, points)| Series { name, points })
        .collect()
}

/// E18: DAG-vs-tree throughput across thread counts, at k=1 — the chunk
/// size at which narrow-frontier DAGs (wavefront) can spread at all.
pub fn dag_sweep_throughput(rows: &[Record]) -> Chart {
    Chart {
        title: "E18: DAG vs tree throughput (k=1, Kitty Hawk model)".into(),
        x_label: "processors".into(),
        y_label: "Mnodes/s".into(),
        log2_x: true,
        series: dag_series(rows, "threads", "mnodes_per_sec", 1.0),
    }
}

/// E18 companion: how much of the O(p·D) steal bound each workload actually
/// uses (successful steals / bound, at k=1). Values far below 1 are the
/// slack the `DEFAULT_STEAL_FACTOR` calibration rests on.
pub fn dag_sweep_steal_utilisation(rows: &[Record]) -> Chart {
    let mut by_key: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for r in rows {
        let (Some(w), Some(alg), Some(chunk), Some(x), Some(s), Some(b)) = (
            r.get("workload"),
            r.get("algorithm"),
            r.num("chunk"),
            r.num("threads"),
            r.num("successful_steals"),
            r.num("steal_bound"),
        ) else {
            continue;
        };
        if chunk != 1.0 || b <= 0.0 {
            continue;
        }
        by_key
            .entry(format!("{w}/{alg}"))
            .or_default()
            .push((x, s / b));
    }
    Chart {
        title: "E18: steal-bound utilisation (successful steals / p·D bound, k=1)".into(),
        x_label: "processors".into(),
        y_label: "fraction of bound".into(),
        log2_x: true,
        series: by_key
            .into_iter()
            .map(|(name, points)| Series { name, points })
            .collect(),
    }
}

/// Supplemental: efficiency vs problem size.
pub fn scale_eff(rows: &[Record]) -> Chart {
    Chart {
        title: "Efficiency vs problem size (upc-distmem, 64 threads)".into(),
        x_label: "tree nodes".into(),
        y_label: "efficiency".into(),
        log2_x: true,
        series: series_by_algorithm(rows, "nodes", "efficiency"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
algorithm,threads,chunk,nodes,mnodes_per_sec,speedup,efficiency
upc-distmem,256,1,100,62.3,26.0,0.10
upc-distmem,256,2,100,69.4,29.0,0.11
mpi-ws,256,1,100,34.0,14.2,0.05
mpi-ws,256,2,100,51.0,21.3,0.08
";

    #[test]
    fn fig4_builds_one_series_per_algorithm() {
        let rows = parse(SAMPLE).unwrap();
        let c = fig4_performance(&rows);
        assert_eq!(c.series.len(), 2);
        let dm = c.series.iter().find(|s| s.name == "upc-distmem").unwrap();
        assert_eq!(dm.points, vec![(1.0, 62.3), (2.0, 69.4)]);
        assert!(c.log2_x);
    }

    #[test]
    fn fig5_uses_threads_axis() {
        let rows = parse(SAMPLE).unwrap();
        let c = fig5_speedup(&rows);
        let dm = c.series.iter().find(|s| s.name == "upc-distmem").unwrap();
        assert_eq!(dm.points[0], (256.0, 26.0));
    }

    #[test]
    fn renders_end_to_end() {
        for stem in ["fig4", "fig5_xl", "fig5_xxl", "fig6", "scale_eff"] {
            for (name, svg) in render(stem, SAMPLE).unwrap() {
                assert!(svg.contains("polyline"), "{name}");
            }
        }
        assert!(render("service", "not,a\ncsv").unwrap().is_empty(), "a CSV with no figure is not parsed");
    }

    #[test]
    fn missing_columns_produce_empty_series() {
        let rows = parse("algorithm,foo\na,1\n").unwrap();
        let c = fig4_performance(&rows);
        assert!(c.series.is_empty());
    }

    const SAMPLE_DAG: &str = "\
workload,algorithm,threads,chunk,tasks,critical_path,t_virtual_s,mnodes_per_sec,steal_attempts,successful_steals,steal_bound,working_frac,t_real_s
T-S,upc-term,64,1,45925,428,0.005,9.0,1000,400,219136,0.11,0.1
wavefront,upc-term,64,1,6400,422,0.012,0.54,1306,250,216064,0.20,0.1
wavefront,upc-term,256,1,6400,422,0.014,0.45,782,96,864256,0.04,0.1
wavefront,upc-term,64,4,6400,422,0.149,0.04,0,0,216064,0.02,0.1
";

    #[test]
    fn dag_sweep_keys_series_on_workload_and_algorithm() {
        let rows = parse(SAMPLE_DAG).unwrap();
        let c = dag_sweep_throughput(&rows);
        assert_eq!(c.series.len(), 2, "one series per workload/algorithm");
        let wf = c
            .series
            .iter()
            .find(|s| s.name == "wavefront/upc-term")
            .unwrap();
        // Only the k=1 rows contribute: the k=4 point is filtered out.
        assert_eq!(wf.points, vec![(64.0, 0.54), (256.0, 0.45)]);
        assert!(c.to_svg(720, 440).contains("polyline"));
    }

    #[test]
    fn dag_steal_utilisation_divides_by_the_bound() {
        let rows = parse(SAMPLE_DAG).unwrap();
        let c = dag_sweep_steal_utilisation(&rows);
        let wf = c
            .series
            .iter()
            .find(|s| s.name == "wavefront/upc-term")
            .unwrap();
        assert_eq!(wf.points.len(), 2);
        assert!((wf.points[0].1 - 250.0 / 216064.0).abs() < 1e-12);
        assert!(wf.points.iter().all(|&(_, y)| (0.0..=1.0).contains(&y)));
    }
}
