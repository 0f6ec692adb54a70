//! Seeded bad fixture for the tracked-set module's lint coverage: decoded
//! entries are validated here, so the file is on the panic path. Lib code
//! unwraps one lookup; the test module stays exempt.

pub struct Entries {
    entries: Vec<(u64, f32)>,
}

impl Entries {
    pub fn last_index(&self) -> u64 {
        // panic-path: an empty decoded set must be a typed error.
        self.entries.last().unwrap().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_only_unwrap_is_fine() {
        let e = Entries {
            entries: vec![(3, 1.0)],
        };
        assert_eq!(e.entries.first().copied().unwrap().0, e.last_index());
    }
}
