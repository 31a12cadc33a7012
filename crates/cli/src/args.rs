//! Minimal flag parser (the workspace's dependency policy excludes `clap`).
//!
//! Supports `--key value`, `--key=value`, boolean `--flag`, repeated keys,
//! and positional arguments. Unknown flags are an error so typos fail loud.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, Vec<String>>,
}

/// A parse or lookup failure, printable as the CLI error message.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgsError {
    /// A flag was not in the accepted set.
    UnknownFlag {
        /// The offending flag (without dashes).
        flag: String,
    },
    /// A flag that requires a value appeared last with none following.
    MissingValue {
        /// The flag lacking its value.
        flag: String,
    },
    /// A required flag was absent.
    Required {
        /// The missing flag.
        flag: String,
    },
    /// A value failed to parse.
    BadValue {
        /// The flag concerned.
        flag: String,
        /// The unparsable text.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::UnknownFlag { flag } => write!(f, "unknown flag --{flag}"),
            ArgsError::MissingValue { flag } => write!(f, "flag --{flag} requires a value"),
            ArgsError::Required { flag } => write!(f, "missing required flag --{flag}"),
            ArgsError::BadValue {
                flag,
                value,
                expected,
            } => write!(
                f,
                "invalid value `{value}` for --{flag}: expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses raw arguments. `boolean_flags` take no value; every other
    /// accepted flag consumes one. Flags must appear in `accepted`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] on unknown flags or missing values.
    pub fn parse<I, S>(raw: I, accepted: &[&str], boolean_flags: &[&str]) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(token) = iter.next() {
            if let Some(body) = token.strip_prefix("--") {
                let (name, inline_value) = match body.split_once('=') {
                    Some((n, v)) => (n.to_string(), Some(v.to_string())),
                    None => (body.to_string(), None),
                };
                if !accepted.contains(&name.as_str()) && !boolean_flags.contains(&name.as_str()) {
                    return Err(ArgsError::UnknownFlag { flag: name });
                }
                let value = if boolean_flags.contains(&name.as_str()) {
                    inline_value.unwrap_or_else(|| "true".to_string())
                } else if let Some(v) = inline_value {
                    v
                } else if let Some(next) = iter.next() {
                    next
                } else {
                    return Err(ArgsError::MissingValue { flag: name });
                };
                args.flags.entry(name).or_default().push(value);
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The last value of a flag, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .get(flag)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All values of a repeatable flag.
    pub fn get_all(&self, flag: &str) -> &[String] {
        self.flags.get(flag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether a boolean flag was set.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// The last value of a flag, or an error naming it as required.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Required`] when absent.
    pub fn require(&self, flag: &str) -> Result<&str, ArgsError> {
        self.get(flag).ok_or_else(|| ArgsError::Required {
            flag: flag.to_string(),
        })
    }

    /// Parses a flag's value; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] when present but unparsable.
    pub fn get_opt<T: std::str::FromStr>(
        &self,
        flag: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgsError> {
        self.get(flag)
            .map(|text| {
                text.parse().map_err(|_| ArgsError::BadValue {
                    flag: flag.to_string(),
                    value: text.to_string(),
                    expected,
                })
            })
            .transpose()
    }

    /// Parses a flag's value with a default when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] when present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgsError> {
        Ok(self.get_opt(flag, expected)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: &[&str] = &["addr", "policy", "resource", "threads"];
    const BOOLS: &[&str] = &["verbose", "strict"];

    fn parse(tokens: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(tokens.iter().copied(), ACCEPTED, BOOLS)
    }

    #[test]
    fn space_and_equals_forms() {
        let args = parse(&["--addr", "127.0.0.1:80", "--policy=policy2"]).unwrap();
        assert_eq!(args.get("addr"), Some("127.0.0.1:80"));
        assert_eq!(args.get("policy"), Some("policy2"));
    }

    #[test]
    fn positional_and_flags_mix() {
        let args = parse(&["serve", "--addr", "x", "extra"]).unwrap();
        assert_eq!(
            args.positional(),
            &["serve".to_string(), "extra".to_string()]
        );
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let args = parse(&["--verbose", "--addr", "y"]).unwrap();
        assert!(args.has("verbose"));
        assert!(!args.has("strict"));
        assert_eq!(args.get("addr"), Some("y"));
    }

    #[test]
    fn repeated_flags_accumulate() {
        let args = parse(&["--resource", "/a=1", "--resource", "/b=2"]).unwrap();
        assert_eq!(args.get_all("resource").len(), 2);
        assert_eq!(args.get("resource"), Some("/b=2"));
    }

    #[test]
    fn unknown_flag_rejected() {
        assert_eq!(
            parse(&["--bogus", "1"]),
            Err(ArgsError::UnknownFlag {
                flag: "bogus".into()
            })
        );
    }

    #[test]
    fn missing_value_rejected() {
        assert_eq!(
            parse(&["--addr"]),
            Err(ArgsError::MissingValue {
                flag: "addr".into()
            })
        );
    }

    #[test]
    fn require_and_get_parsed() {
        let args = parse(&["--threads", "4"]).unwrap();
        assert_eq!(args.require("threads").unwrap(), "4");
        assert!(matches!(
            args.require("addr"),
            Err(ArgsError::Required { .. })
        ));
        assert_eq!(
            args.get_parsed::<usize>("threads", 1, "an integer")
                .unwrap(),
            4
        );
        assert_eq!(
            args.get_parsed::<usize>("missingflag", 7, "an integer")
                .unwrap(),
            7
        );
    }

    #[test]
    fn bad_value_reports_expectation() {
        let args = parse(&["--threads", "four"]).unwrap();
        let err = args
            .get_parsed::<usize>("threads", 1, "an integer")
            .unwrap_err();
        assert!(err.to_string().contains("an integer"));
    }

    #[test]
    fn error_display() {
        for e in [
            ArgsError::UnknownFlag { flag: "x".into() },
            ArgsError::MissingValue { flag: "x".into() },
            ArgsError::Required { flag: "x".into() },
        ] {
            assert!(e.to_string().contains("--x"));
        }
    }
}
