//! Error type for graph construction and I/O.

use std::fmt;

/// Errors produced by this crate.
#[derive(Debug)]
pub enum KgraphError {
    /// A parse error while reading a graph file.
    Parse {
        /// 1-based line number in a line format (TSV or N-Triples); 0 for
        /// input without lines, which `Display` then does not mention.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A file extension the operation neither reads nor writes, or one
    /// it only reads.
    Unsupported {
        /// What was refused and what to use instead.
        message: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A malformed, truncated, corrupted or wrong-version `.wsnap`
    /// snapshot file.
    Snapshot {
        /// What failed validation.
        message: String,
    },
}

impl fmt::Display for KgraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KgraphError::Parse { line: 0, message } => write!(f, "parse error: {message}"),
            KgraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            KgraphError::Unsupported { message } => f.write_str(message),
            KgraphError::Io(e) => write!(f, "i/o error: {e}"),
            KgraphError::Snapshot { message } => write!(f, "snapshot error: {message}"),
        }
    }
}

impl std::error::Error for KgraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KgraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for KgraphError {
    fn from(e: std::io::Error) -> Self {
        KgraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = KgraphError::Snapshot { message: "missing section 20".into() };
        assert_eq!(e.to_string(), "snapshot error: missing section 20");
        let e: KgraphError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert_eq!(e.to_string(), "i/o error: gone");
    }

    #[test]
    fn parse_errors_name_a_line_only_when_there_is_one() {
        let on = |line| KgraphError::Parse { line, message: "bad".into() }.to_string();
        assert_eq!(on(3), "parse error on line 3: bad");
        assert_eq!(on(0), "parse error: bad");
    }

    #[test]
    fn io_error_converts_and_chains_source() {
        let e: KgraphError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
