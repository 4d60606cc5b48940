//! The oracle's own value model and a parser for the text rows the server
//! renders (`('a', {'b','c'}, ['d', 'e'])`), so expected and received
//! relations compare as sets of structured rows without going through any
//! of nestdb's own value code.

use std::collections::BTreeSet;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum V {
    Atom(String),
    Set(BTreeSet<V>),
    Tuple(Vec<V>),
}

impl V {
    pub fn atom(s: &str) -> V {
        V::Atom(s.to_string())
    }

    pub fn set(items: impl IntoIterator<Item = V>) -> V {
        V::Set(items.into_iter().collect())
    }
}

pub type Row = Vec<V>;
pub type Rows = BTreeSet<Row>;

/// Parse one rendered row: `(v, …)`.
pub fn parse_row(text: &str) -> Result<Row, String> {
    let mut p = P {
        s: text.as_bytes(),
        at: 0,
    };
    let row = p.seq(b'(', b')')?;
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing input in row {text:?}"));
    }
    Ok(row)
}

struct P<'a> {
    s: &'a [u8],
    at: usize,
}

impl P<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn seq(&mut self, open: u8, close: u8) -> Result<Vec<V>, String> {
        self.ws();
        if self.s.get(self.at) != Some(&open) {
            return Err(format!("expected {:?} at byte {}", open as char, self.at));
        }
        self.at += 1;
        let mut items = Vec::new();
        loop {
            self.ws();
            match self.s.get(self.at) {
                Some(&b) if b == close => {
                    self.at += 1;
                    return Ok(items);
                }
                Some(b',') => self.at += 1,
                Some(_) => items.push(self.value()?),
                None => return Err("unterminated sequence".to_string()),
            }
        }
    }

    fn value(&mut self) -> Result<V, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'\'') => {
                let start = self.at + 1;
                let len = self.s[start..]
                    .iter()
                    .position(|&b| b == b'\'')
                    .ok_or("unterminated atom")?;
                self.at = start + len + 1;
                Ok(V::Atom(
                    String::from_utf8_lossy(&self.s[start..start + len]).into_owned(),
                ))
            }
            Some(b'{') => Ok(V::Set(self.seq(b'{', b'}')?.into_iter().collect())),
            Some(b'[') => Ok(V::Tuple(self.seq(b'[', b']')?)),
            other => Err(format!("unexpected {other:?} at byte {}", self.at)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_parse_into_structured_values() {
        assert_eq!(parse_row("('n19')").unwrap(), vec![V::atom("n19")]);
        assert_eq!(
            parse_row("({'t9','t0'}, 'n1')").unwrap(),
            vec![V::set([V::atom("t0"), V::atom("t9")]), V::atom("n1")]
        );
        assert_eq!(
            parse_row("(['a', {'b'}])").unwrap(),
            vec![V::Tuple(vec![V::atom("a"), V::set([V::atom("b")])])]
        );
        assert!(parse_row("('a'").is_err());
        assert!(parse_row("('a') x").is_err());
    }
}
