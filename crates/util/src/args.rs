//! The command-line reader every LMS binary takes its flags through.
//!
//! A plain reader, not a declarative parser: a binary walks the arguments
//! with [`Args::next`], matches each one itself, and asks the reader for
//! the value of the flag it just matched. The reader owns the wording of a
//! refusal, so every binary refuses a missing or malformed value alike:
//! "`--x` needs a value", "bad `--x` `v`: …", "unknown argument `--x`".

use crate::error::{Error, Result};
use std::fmt::Display;
use std::str::FromStr;

/// A command line, read one argument at a time.
#[derive(Debug)]
pub struct Args {
    rest: std::vec::IntoIter<String>,
    /// The argument [`Args::next`] returned last: the flag a value is for.
    flag: String,
}

impl Args {
    /// The process's arguments, its name skipped.
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    /// Reads `args` (the arguments without the program name).
    pub fn new(args: impl IntoIterator<Item = impl Into<String>>) -> Self {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        Args { rest: args.into_iter(), flag: String::new() }
    }

    /// The value of the flag returned last.
    pub fn value(&mut self) -> Result<String> {
        self.rest.next().ok_or_else(|| Error::config(format!("`{}` needs a value", self.flag)))
    }

    /// The value of the flag returned last, parsed as a `T`.
    pub fn parse<T: FromStr>(&mut self) -> Result<T>
    where
        T::Err: Display,
    {
        self.parse_with(str::parse)
    }

    /// The value of the flag returned last, read by `read`.
    pub fn parse_with<T, E: Display>(
        &mut self,
        read: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T> {
        let value = self.value()?;
        read(&value).map_err(|e| Error::config(format!("bad `{}` `{value}`: {e}", self.flag)))
    }

    /// The refusal of the argument returned last, which no arm matched.
    pub fn unknown(&self) -> Error {
        Error::config(format!("unknown argument `{}`", self.flag))
    }
}

impl Iterator for Args {
    type Item = String;

    /// The next argument: a flag, or a positional argument.
    fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        self.flag.clone_from(&arg);
        Some(arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_flags_and_their_values() {
        let mut args = Args::new(["--n", "7", "--on", "pos", "--name", "x"]);
        let (mut n, mut on, mut name, mut positional) = (0u32, false, String::new(), vec![]);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--n" => n = args.parse().unwrap(),
                "--on" => on = true,
                "--name" => name = args.value().unwrap(),
                _ => positional.push(arg),
            }
        }
        assert_eq!((n, on, name.as_str(), positional), (7, true, "x", vec!["pos".to_string()]));
    }

    #[test]
    fn every_refusal_names_the_flag() {
        let mut args = Args::new(["--n", "x", "--m"]);
        args.next();
        let bad = args.parse::<u32>().unwrap_err().to_string();
        assert!(bad.contains("bad `--n` `x`: invalid digit"), "{bad}");
        args.next();
        let missing = args.parse::<u32>().unwrap_err().to_string();
        assert!(missing.contains("`--m` needs a value"), "{missing}");
        assert!(args.unknown().to_string().contains("unknown argument `--m`"));
        let mut args = Args::new(["--d", "0"]);
        args.next();
        let e = args.parse_with(|v| if v == "0" { Err("must be positive") } else { Ok(v.len()) });
        assert!(e.unwrap_err().to_string().contains("bad `--d` `0`: must be positive"));
    }
}
