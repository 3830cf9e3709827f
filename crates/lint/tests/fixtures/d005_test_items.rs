// D005 skips `#[cfg(test)]` items up to their matching `}`; nothing else.
fn before_tests() -> u32 { Some(1).unwrap() } // flagged: library code

#[cfg(test)]
mod tests {
    #[test]
    fn braces_in_literals_and_comments_do_not_close_the_module() {
        let s = "}} a closing brace in a string";
        let c = '}';
        let r = r#"} {"#;
        // } a closing brace in a line comment
        /* } { a block comment */
        Some(s).unwrap();
        Some(r).expect("still inside the module");
        panic!("still inside {}", c);
    }

    mod nested {
        fn helper() -> u8 { None::<u8>.unwrap() }
    }
}

fn after_tests() -> u32 { Some(2).unwrap() } // flagged: library code

struct Chunk { holders: usize }

impl Chunk {
    #[cfg(test)]
    pub(crate) fn holders(&self) -> usize {
        Some(self.holders).expect("test-only accessor")
    }

    pub fn len(&self) -> usize { Some(0).unwrap() } // flagged: library code
}

#[cfg(test)]
mod more_tests;
fn after_declaration() { Some(3).unwrap(); } // flagged: `mod x;` exempts nothing

#[cfg(not(test))]
fn not_test() { Some(4).unwrap(); } // flagged: cfg(not(test)) is library code
