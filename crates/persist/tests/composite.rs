//! The composite form of `persist!`, used from outside the crate as the
//! system's records use it: every part kind, written and read in list
//! order, with the check run before the derived parts are compared.

use asf_persist::{persist, Persist, Result, Rows, StateReader, StateWriter};

/// A composite of every part kind: a layout constant, a value, a row
/// table, a nested value read in place and a derived sum.
struct Outer {
    label: u8,
    table: Column,
    inner: Inner,
    checked: Option<Rows>,
}

/// A row table whose delta carries row 1 only.
struct Column(Vec<u32>);

impl Column {
    fn encode_rows(&self, w: &mut StateWriter, rows: Rows) {
        let selected = (0..self.0.len()).filter(|&i| rows == Rows::All || i == 1);
        rows.put_rows(w, selected.clone().count(), selected, |w, i| self.0[i].put(w));
    }
    fn decode_rows(&mut self, r: &mut StateReader<'_>, rows: Rows) -> Result<()> {
        rows.get_rows(r, self.0.len(), 4, |r, i| {
            self.0[i] = u32::get(r)?;
            Ok(())
        })
    }
}

/// A nested value whose reader adds to what it holds, to show it reads in
/// place.
struct Inner {
    n: u64,
}

impl Inner {
    fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.n);
    }
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<()> {
        self.n += r.get_u64()?;
        Ok(())
    }
}

const TAG: u8 = 7;

impl Outer {
    fn sum(&self) -> u64 {
        self.table.0.iter().map(|&v| u64::from(v)).sum()
    }
    fn check(&mut self, rows: Rows) -> Result<()> {
        self.checked = Some(rows);
        Ok(())
    }
    persist!(fn put, get(rows) {
        TAG: const,
        label,
        table: rows,
        inner: in,
        sum: derived,
    } check Self::check);
}

fn blank() -> Outer {
    Outer { label: 0, table: Column(vec![0; 3]), inner: Inner { n: 1 }, checked: None }
}

#[test]
fn composite_parts_are_written_and_read_in_list_order() {
    let outer = Outer { label: 5, table: Column(vec![10, 20, 30]), ..blank() };
    let mut w = StateWriter::new();
    outer.put(&mut w, Rows::Dirty);
    let mut hand = StateWriter::new();
    hand.put_u8(TAG);
    hand.put_u8(5);
    hand.put_u64(1);
    hand.put_u32(1);
    hand.put_u32(20);
    hand.put_u64(1);
    hand.put_u64(60);
    assert_eq!(w.bytes(), hand.bytes());

    // The delta lands on a blank table, so the sum it carries disagrees —
    // after the check ran.
    let mut back = blank();
    back.get(&mut StateReader::new(w.bytes()), Rows::Dirty).unwrap_err();
    assert_eq!(back.checked, Some(Rows::Dirty), "the check runs before the derived parts");
    assert_eq!((back.label, &back.table.0[..], back.inner.n), (5, &[0, 20, 0][..], 2));

    let mut w = StateWriter::new();
    outer.put(&mut w, Rows::All);
    let mut back = blank();
    back.get(&mut StateReader::new(w.bytes()), Rows::All).unwrap();
    assert_eq!((&back.table.0[..], back.sum()), (&[10, 20, 30][..], 60));
    let mut bad = w.into_bytes();
    bad[0] = TAG + 1;
    assert!(blank().get(&mut StateReader::new(&bad), Rows::All).is_err(), "constant differs");
}
