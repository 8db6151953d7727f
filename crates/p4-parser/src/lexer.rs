//! Lexer for the P4-16 subset.
//!
//! Produces a token stream with source positions.  Comments (`//` and
//! `/* */`) and preprocessor-style `#include` lines are skipped, matching
//! what the ToP4 printer emits.

use std::fmt;

/// A source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    pub line: u32,
    pub column: u32,
}

impl Pos {
    pub fn start() -> Pos {
        Pos { line: 1, column: 1 }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    Identifier(String),
    /// An unsized integer literal, e.g. `42` or `0x1f`.
    Number(u128),
    /// A sized literal, e.g. `8w255` (unsigned) or `4s3` (signed).
    SizedNumber {
        width: u32,
        value: u128,
        signed: bool,
    },
    /// An `#include <...>` directive; the payload is the included name.
    Include(String),

    // Punctuation.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    LAngle,
    RAngle,
    Semicolon,
    Colon,
    Comma,
    Dot,
    Assign,
    Plus,
    Minus,
    Star,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Question,
    Shl,
    Shr,
    EqEq,
    NotEq,
    Le,
    Ge,
    AndAnd,
    OrOr,
    PlusPlus,
    SatPlus,
    SatMinus,

    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Identifier(s) => write!(f, "identifier `{s}`"),
            Token::Number(n) => write!(f, "number `{n}`"),
            Token::SizedNumber {
                width,
                value,
                signed,
            } => {
                write!(
                    f,
                    "literal `{width}{}{value}`",
                    if *signed { "s" } else { "w" }
                )
            }
            Token::Include(name) => write!(f, "#include <{name}>"),
            other => write!(f, "`{}`", token_text(other)),
        }
    }
}

fn token_text(token: &Token) -> &'static str {
    match token {
        Token::LParen => "(",
        Token::RParen => ")",
        Token::LBrace => "{",
        Token::RBrace => "}",
        Token::LBracket => "[",
        Token::RBracket => "]",
        Token::LAngle => "<",
        Token::RAngle => ">",
        Token::Semicolon => ";",
        Token::Colon => ":",
        Token::Comma => ",",
        Token::Dot => ".",
        Token::Assign => "=",
        Token::Plus => "+",
        Token::Minus => "-",
        Token::Star => "*",
        Token::Amp => "&",
        Token::Pipe => "|",
        Token::Caret => "^",
        Token::Tilde => "~",
        Token::Bang => "!",
        Token::Question => "?",
        Token::Shl => "<<",
        Token::Shr => ">>",
        Token::EqEq => "==",
        Token::NotEq => "!=",
        Token::Le => "<=",
        Token::Ge => ">=",
        Token::AndAnd => "&&",
        Token::OrOr => "||",
        Token::PlusPlus => "++",
        Token::SatPlus => "|+|",
        Token::SatMinus => "|-|",
        Token::Eof => "<eof>",
        _ => "<token>",
    }
}

/// A token together with the position where it starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    pub token: Token,
    pub pos: Pos,
}

/// Lexing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub message: String,
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenises `source`.
pub fn lex(source: &str) -> Result<Vec<Spanned>, LexError> {
    Lexer::new(source).run()
}

struct Lexer {
    chars: Vec<char>,
    index: usize,
    pos: Pos,
}

impl Lexer {
    fn new(source: &str) -> Lexer {
        Lexer {
            chars: source.chars().collect(),
            index: 0,
            pos: Pos::start(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.index).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.index + 1).copied()
    }

    fn peek3(&self) -> Option<char> {
        self.chars.get(self.index + 2).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.index += 1;
        if c == '\n' {
            self.pos.line += 1;
            self.pos.column = 1;
        } else {
            self.pos.column += 1;
        }
        Some(c)
    }

    fn error(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            pos: self.pos,
        }
    }

    fn run(mut self) -> Result<Vec<Spanned>, LexError> {
        let mut tokens = Vec::new();
        loop {
            self.skip_trivia()?;
            let pos = self.pos;
            let Some(c) = self.peek() else {
                tokens.push(Spanned {
                    token: Token::Eof,
                    pos,
                });
                return Ok(tokens);
            };
            let token = if c.is_ascii_alphabetic() || c == '_' {
                self.identifier()
            } else if c.is_ascii_digit() {
                self.number()?
            } else if c == '#' {
                self.include()?
            } else {
                self.punctuation()?
            };
            tokens.push(Spanned { token, pos });
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek2() == Some('*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => return Err(self.error("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn identifier(&mut self) -> Token {
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == '_' {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        Token::Identifier(name)
    }

    fn number(&mut self) -> Result<Token, LexError> {
        let mut digits = String::new();
        let radix = if self.peek() == Some('0') && matches!(self.peek2(), Some('x') | Some('X')) {
            self.bump();
            self.bump();
            16
        } else if self.peek() == Some('0') && matches!(self.peek2(), Some('b') | Some('B'))
            // `0b...` only when followed by a binary digit, so `0` parses fine.
            && matches!(self.peek3(), Some('0') | Some('1'))
        {
            self.bump();
            self.bump();
            2
        } else {
            10
        };
        while let Some(c) = self.peek() {
            if c.is_digit(radix) || c == '_' {
                if c != '_' {
                    digits.push(c);
                }
                self.bump();
            } else {
                break;
            }
        }
        if digits.is_empty() {
            return Err(self.error("malformed number literal"));
        }
        let value = u128::from_str_radix(&digits, radix)
            .map_err(|_| self.error(format!("integer literal out of range: {digits}")))?;
        // Width prefix syntax: `8w255`, `4s3` (the leading number is the width).
        if radix == 10 && matches!(self.peek(), Some('w') | Some('s')) {
            let signed = self.peek() == Some('s');
            self.bump();
            let width = u32::try_from(value).map_err(|_| self.error("bit width too large"))?;
            let mut value_digits = String::new();
            let value_radix =
                if self.peek() == Some('0') && matches!(self.peek2(), Some('x') | Some('X')) {
                    self.bump();
                    self.bump();
                    16
                } else {
                    10
                };
            while let Some(c) = self.peek() {
                if c.is_digit(value_radix) || c == '_' {
                    if c != '_' {
                        value_digits.push(c);
                    }
                    self.bump();
                } else {
                    break;
                }
            }
            if value_digits.is_empty() {
                return Err(self.error("sized literal missing a value"));
            }
            let literal = u128::from_str_radix(&value_digits, value_radix)
                .map_err(|_| self.error("sized literal out of range"))?;
            return Ok(Token::SizedNumber {
                width,
                value: literal,
                signed,
            });
        }
        Ok(Token::Number(value))
    }

    fn include(&mut self) -> Result<Token, LexError> {
        // `#include <name.p4>` — consume up to the closing `>`.
        let start = self.index;
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        let line: String = self.chars[start..self.index].iter().collect();
        let name = line
            .trim_start_matches('#')
            .trim()
            .trim_start_matches("include")
            .trim()
            .trim_start_matches('<')
            .trim_end_matches('>')
            .trim_end_matches(".p4")
            .to_string();
        if name.is_empty() {
            return Err(self.error(format!("malformed preprocessor line `{line}`")));
        }
        Ok(Token::Include(name))
    }

    fn punctuation(&mut self) -> Result<Token, LexError> {
        let c = self.bump().expect("caller checked a character is present");
        let token = match c {
            '(' => Token::LParen,
            ')' => Token::RParen,
            '{' => Token::LBrace,
            '}' => Token::RBrace,
            '[' => Token::LBracket,
            ']' => Token::RBracket,
            ';' => Token::Semicolon,
            ':' => Token::Colon,
            ',' => Token::Comma,
            '.' => Token::Dot,
            '~' => Token::Tilde,
            '^' => Token::Caret,
            '*' => Token::Star,
            '?' => Token::Question,
            '+' => {
                if self.peek() == Some('+') {
                    self.bump();
                    Token::PlusPlus
                } else {
                    Token::Plus
                }
            }
            '-' => Token::Minus,
            '=' => {
                if self.peek() == Some('=') {
                    self.bump();
                    Token::EqEq
                } else {
                    Token::Assign
                }
            }
            '!' => {
                if self.peek() == Some('=') {
                    self.bump();
                    Token::NotEq
                } else {
                    Token::Bang
                }
            }
            '<' => match self.peek() {
                Some('<') => {
                    self.bump();
                    Token::Shl
                }
                Some('=') => {
                    self.bump();
                    Token::Le
                }
                _ => Token::LAngle,
            },
            '>' => match self.peek() {
                Some('>') => {
                    self.bump();
                    Token::Shr
                }
                Some('=') => {
                    self.bump();
                    Token::Ge
                }
                _ => Token::RAngle,
            },
            '&' => {
                if self.peek() == Some('&') {
                    self.bump();
                    Token::AndAnd
                } else {
                    Token::Amp
                }
            }
            '|' => match (self.peek(), self.peek2()) {
                (Some('|'), _) => {
                    self.bump();
                    Token::OrOr
                }
                (Some('+'), Some('|')) => {
                    self.bump();
                    self.bump();
                    Token::SatPlus
                }
                (Some('-'), Some('|')) => {
                    self.bump();
                    self.bump();
                    Token::SatMinus
                }
                _ => Token::Pipe,
            },
            other => return Err(self.error(format!("unexpected character `{other}`"))),
        };
        Ok(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(source: &str) -> Vec<Token> {
        lex(source).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn malformed_preprocessor_lines_are_quoted() {
        let error = lex("#\n").unwrap_err();
        assert_eq!(error.message, "malformed preprocessor line `#`");
        let error = lex("control c() {}\n#include <>\n").unwrap_err();
        assert_eq!(error.message, "malformed preprocessor line `#include <>`");
        assert_eq!(error.pos.line, 2);
    }

    #[test]
    fn lexes_identifiers_and_punctuation() {
        assert_eq!(
            tokens("hdr.h.a = 1;"),
            vec![
                Token::Identifier("hdr".into()),
                Token::Dot,
                Token::Identifier("h".into()),
                Token::Dot,
                Token::Identifier("a".into()),
                Token::Assign,
                Token::Number(1),
                Token::Semicolon,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lexes_sized_literals() {
        assert_eq!(
            tokens("8w255 4s3 16w0xbeef"),
            vec![
                Token::SizedNumber {
                    width: 8,
                    value: 255,
                    signed: false
                },
                Token::SizedNumber {
                    width: 4,
                    value: 3,
                    signed: true
                },
                Token::SizedNumber {
                    width: 16,
                    value: 0xbeef,
                    signed: false
                },
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lexes_hex_and_binary() {
        assert_eq!(
            tokens("0x1F 0b101 0"),
            vec![
                Token::Number(0x1f),
                Token::Number(0b101),
                Token::Number(0),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments_and_includes() {
        let src = "// line comment\n#include <core.p4>\n/* block */ x";
        assert_eq!(
            tokens(src),
            vec![
                Token::Include("core".into()),
                Token::Identifier("x".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_multi_character_operators() {
        assert_eq!(
            tokens("a << b >> c |+| d |-| e ++ f && g || h != i == j <= k >= l"),
            vec![
                Token::Identifier("a".into()),
                Token::Shl,
                Token::Identifier("b".into()),
                Token::Shr,
                Token::Identifier("c".into()),
                Token::SatPlus,
                Token::Identifier("d".into()),
                Token::SatMinus,
                Token::Identifier("e".into()),
                Token::PlusPlus,
                Token::Identifier("f".into()),
                Token::AndAnd,
                Token::Identifier("g".into()),
                Token::OrOr,
                Token::Identifier("h".into()),
                Token::NotEq,
                Token::Identifier("i".into()),
                Token::EqEq,
                Token::Identifier("j".into()),
                Token::Le,
                Token::Identifier("k".into()),
                Token::Ge,
                Token::Identifier("l".into()),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn positions_track_lines() {
        let spanned = lex("a\n  b").unwrap();
        assert_eq!(spanned[0].pos, Pos { line: 1, column: 1 });
        assert_eq!(spanned[1].pos, Pos { line: 2, column: 3 });
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(lex("a $ b").is_err());
        assert!(lex("/* unterminated").is_err());
    }
}
