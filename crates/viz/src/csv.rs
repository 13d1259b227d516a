//! Minimal reader for the harness's `results/*.csv` files.
//!
//! The format is fixed (comma-separated, one header row, no quoting —
//! produced by `uts-bench::harness::Sink::emit`), so a full CSV parser is
//! unnecessary.

use std::collections::HashMap;
use std::path::Path;

/// One parsed data row: column name → raw string value.
#[derive(Clone, Debug)]
pub struct Record {
    fields: HashMap<String, String>,
}

impl Record {
    /// String value of a column.
    pub fn get(&self, col: &str) -> Option<&str> {
        self.fields.get(col).map(String::as_str)
    }

    /// Numeric value of a column.
    pub fn num(&self, col: &str) -> Option<f64> {
        self.get(col)?.parse().ok()
    }
}

/// Parse CSV text into records.
pub fn parse(text: &str) -> Result<Vec<Record>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<String> = lines
        .next()
        .ok_or("empty csv")?
        .split(',')
        .map(|c| c.trim().to_string())
        .collect();
    let mut out = Vec::new();
    for (i, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != header.len() {
            return Err(format!(
                "row {} has {} cells, header has {}",
                i + 2,
                cells.len(),
                header.len()
            ));
        }
        let fields = header
            .iter()
            .cloned()
            .zip(cells.iter().map(|c| c.trim().to_string()))
            .collect();
        out.push(Record { fields });
    }
    Ok(out)
}

/// Read and parse a CSV file.
pub fn read(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "algorithm,threads,mnodes_per_sec\nupc-distmem,64,116.2\nmpi-ws,64,113.4\n";

    #[test]
    fn parses_rows_and_columns() {
        let rows = parse(SAMPLE).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("algorithm"), Some("upc-distmem"));
        assert_eq!(rows[1].num("mnodes_per_sec"), Some(113.4));
        assert_eq!(rows[0].num("threads"), Some(64.0));
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = parse("a,b\n1\n").unwrap_err();
        assert!(err.contains("row 2"));
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse("").is_err());
    }

    #[test]
    fn missing_column_is_none() {
        let rows = parse(SAMPLE).unwrap();
        assert_eq!(rows[0].get("nope"), None);
        assert_eq!(rows[0].num("algorithm"), None, "non-numeric");
    }

    #[test]
    fn skips_blank_lines() {
        let rows = parse("a,b\n\n1,2\n\n").unwrap();
        assert_eq!(rows.len(), 1);
    }
}
