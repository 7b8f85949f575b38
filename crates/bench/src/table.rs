//! Minimal aligned text-table rendering for experiment output.

/// One table column: its header and how a row renders its cell.
pub type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// Render `rows` as an aligned text table, one cell per column, under a
/// header row.
pub fn render_table<R>(rows: &[R], columns: &[Column<R>]) -> String {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| columns.iter().map(|(_, cell)| cell(r)).collect())
        .collect();
    let mut widths: Vec<usize> = columns.iter().map(|(header, _)| header.len()).collect();
    for row in &cells {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    fn line<'a>(cells: impl Iterator<Item = &'a str>, widths: &[usize]) -> String {
        let padded: Vec<String> = cells
            .zip(widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        padded.join("  ") + "\n"
    }
    let mut out = line(columns.iter().map(|(header, _)| *header), &widths);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in &cells {
        out.push_str(&line(row.iter().map(String::as_str), &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let t = render_table(
            &[(10, 4), (2000, 22)],
            &[("N", &|r| r.0.to_string()), ("delay", &|r| r.1.to_string())],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('N') && lines[0].contains("delay"));
        assert!(lines[3].ends_with("22"));
        // All rows have equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }
}
