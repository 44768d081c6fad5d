//! Flag reading shared by the `simulate`, `campaign` and `figures`
//! binaries. A missing flag takes its default; a value that does not
//! parse or is out of range exits 2 with a message naming the flag, so a
//! binary that reads its flags first fails before it opens any file.

use desim::SimDelta;

/// The process's arguments and the usage text printed on a bad flag.
#[derive(Debug)]
pub struct Args {
    argv: Vec<String>,
    usage: &'static str,
}

impl Args {
    /// The process's arguments; `usage` is printed after any flag error.
    pub fn from_env(usage: &'static str) -> Self {
        Args {
            argv: std::env::args().collect(),
            usage,
        }
    }

    /// The value after `flag`, if the flag is present.
    pub fn get(&self, flag: &str) -> Option<String> {
        let i = self.argv.iter().position(|a| a == flag)?;
        self.argv.get(i + 1).cloned()
    }

    /// Whether the switch `flag` is present.
    pub fn has(&self, flag: &str) -> bool {
        self.argv.iter().any(|a| a == flag)
    }

    /// Prints `msg` and the usage text, then exits 2.
    pub fn bail(&self, msg: &str) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2);
    }

    /// A whole-number flag: absent gives `default`, unparsable text exits 2.
    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.get(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| self.bail(&format!("{flag} needs a whole number, got '{v}'")))
        })
    }

    /// A horizon in milliseconds: absent gives `default`; 0, or more than
    /// a [`SimDelta`] holds, exits 2.
    pub fn ms(&self, flag: &str, default: u64) -> u64 {
        let ms = self.num(flag, default);
        if SimDelta::checked_from_ms(ms).is_none_or(|d| d == SimDelta::ZERO) {
            self.bail(&format!(
                "{flag} {ms} is outside 1..={}",
                u64::MAX / 1_000_000
            ));
        }
        ms
    }
}
