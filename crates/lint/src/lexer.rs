//! A small, dependency-free Rust lexer for the source lints.
//!
//! This is deliberately not a parser: the rules in [`crate::rules`]
//! match token *sequences* (`SystemTime` `::` `now`), so all the lexer
//! must get right is what is and is not a token — comments, string
//! literals (including raw strings), and char-vs-lifetime ambiguity.
//! It also extracts the two pieces of file-level structure the engine
//! needs: which lines are test code (`#[cfg(test)]` / `#[test]` items)
//! and where `// wmtree-lint: allow(...)` suppressions sit.

/// What kind of token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// Punctuation. `::` is one token; everything else is one character.
    Punct,
    /// A string/char/numeric literal (contents not preserved verbatim
    /// for strings — rules must never match inside literals).
    Literal,
    /// A lifetime (`'a`).
    Lifetime,
}

/// One token with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind.
    pub kind: TokenKind,
    /// Token text (for [`TokenKind::Literal`] a placeholder `"<lit>"`).
    pub text: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in characters).
    pub col: usize,
}

impl Token {
    fn new(kind: TokenKind, text: impl Into<String>, line: usize, col: usize) -> Token {
        Token {
            kind,
            text: text.into(),
            line,
            col,
        }
    }

    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Is this a punctuation token with exactly this text?
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// An inline suppression comment: `// wmtree-lint: allow(WM0101, ...)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Line the comment sits on. The suppression covers this line and,
    /// so that it can precede the offending statement, the next one.
    pub line: usize,
    /// The codes it allows.
    pub codes: Vec<String>,
}

/// A lexed source file plus the file-level structure rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// Name of the crate the file belongs to (`"tree"`, `"analysis"`,
    /// `"suite"` for the umbrella `src/`).
    pub crate_name: String,
    /// Raw lines, for snippet rendering.
    pub lines: Vec<String>,
    /// The token stream (comments and whitespace removed).
    pub tokens: Vec<Token>,
    /// `is_test_line[line-1]` — inside a `#[cfg(test)]` or `#[test]`
    /// item, or in a file under `tests/`.
    pub is_test_line: Vec<bool>,
    /// Inline `wmtree-lint: allow(...)` suppressions.
    pub suppressions: Vec<Suppression>,
}

impl SourceFile {
    /// Lex `content`. `whole_file_is_test` marks every line as test
    /// context (integration-test and bench files).
    pub fn parse(
        path: impl Into<String>,
        crate_name: impl Into<String>,
        content: &str,
        whole_file_is_test: bool,
    ) -> SourceFile {
        let lines: Vec<String> = content.lines().map(|l| l.to_string()).collect();
        let (tokens, suppressions) = lex(content);
        let mut is_test_line = vec![whole_file_is_test; lines.len()];
        if !whole_file_is_test {
            mark_test_regions(&tokens, &mut is_test_line);
        }
        SourceFile {
            path: path.into(),
            crate_name: crate_name.into(),
            lines,
            tokens,
            is_test_line,
            suppressions,
        }
    }

    /// Is the 1-based line test code?
    pub fn is_test(&self, line: usize) -> bool {
        self.is_test_line
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// Is `code` suppressed at the 1-based line? A trailing suppression
    /// comment covers its own line; a comment alone on its line covers
    /// the next line instead.
    pub fn is_suppressed(&self, code: &str, line: usize) -> bool {
        self.suppressions.iter().any(|s| {
            let covers = if self.line_has_code(s.line) {
                s.line == line
            } else {
                s.line == line || s.line + 1 == line
            };
            covers && s.codes.iter().any(|c| c == code)
        })
    }

    /// Does any token sit on the 1-based line (comments don't count)?
    pub fn line_has_code(&self, line: usize) -> bool {
        self.tokens.iter().any(|t| t.line == line)
    }

    /// The raw text of a 1-based line (empty if out of range).
    pub fn line_text(&self, line: usize) -> &str {
        self.lines
            .get(line.wrapping_sub(1))
            .map(|s| s.as_str())
            .unwrap_or("")
    }
}

/// Tokenize, collecting suppression comments on the way.
fn lex(content: &str) -> (Vec<Token>, Vec<Suppression>) {
    let chars: Vec<char> = content.chars().collect();
    let mut tokens = Vec::new();
    let mut suppressions = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut col = 1usize;

    // Advance over `n` chars, tracking line/col.
    macro_rules! bump {
        ($n:expr) => {
            for _ in 0..$n {
                if i < chars.len() {
                    if chars[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        // Line comment (plain or doc): skip to end of line, but mine it
        // for a suppression directive first.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let comment: String = chars[start..i].iter().collect();
            if let Some(codes) = parse_suppression(&comment) {
                suppressions.push(Suppression { line, codes });
            }
            col += i - start;
            continue;
        }
        // Block comment, nesting allowed.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!(2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!(1);
                }
            }
            continue;
        }
        // Whitespace.
        if c.is_whitespace() {
            bump!(1);
            continue;
        }
        // Raw string r"..." / r#"..."# (and br variants).
        if (c == 'r' || c == 'b') && is_raw_string_start(&chars, i) {
            let (tok_line, tok_col) = (line, col);
            let mut j = i;
            if chars[j] == 'b' {
                j += 1;
            }
            if chars.get(j) == Some(&'r') {
                j += 1;
            }
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            // Opening quote at j; scan for `"` followed by `hashes` #s.
            j += 1;
            loop {
                match chars.get(j) {
                    None => break,
                    Some('"') => {
                        let mut k = j + 1;
                        let mut seen = 0usize;
                        while seen < hashes && chars.get(k) == Some(&'#') {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            j = k;
                            break;
                        }
                        j += 1;
                    }
                    Some(_) => j += 1,
                }
            }
            bump!(j - i);
            tokens.push(Token::new(TokenKind::Literal, "<lit>", tok_line, tok_col));
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let (tok_line, tok_col) = (line, col);
            let start = i;
            let mut j = i;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            // A plain string with a `b`/`r` prefix was handled above, so
            // a quote directly after the ident is a prefixed plain
            // string like b"x": treat `b` as consumed by the literal.
            let text: String = chars[start..j].iter().collect();
            if (text == "b") && chars.get(j) == Some(&'"') {
                // byte string literal
                bump!(j - i);
                let consumed = skip_plain_string(&chars, i);
                bump!(consumed);
                tokens.push(Token::new(TokenKind::Literal, "<lit>", tok_line, tok_col));
                continue;
            }
            bump!(j - i);
            tokens.push(Token::new(TokenKind::Ident, text, tok_line, tok_col));
            continue;
        }
        // Numeric literal.
        if c.is_ascii_digit() {
            let (tok_line, tok_col) = (line, col);
            let mut j = i;
            while j < chars.len()
                && (chars[j].is_alphanumeric() || chars[j] == '_' || chars[j] == '.')
            {
                // Don't swallow `..` range or a method call on a number.
                if chars[j] == '.'
                    && (chars.get(j + 1) == Some(&'.')
                        || chars.get(j + 1).is_some_and(|n| n.is_alphabetic()))
                {
                    break;
                }
                j += 1;
            }
            bump!(j - i);
            tokens.push(Token::new(TokenKind::Literal, "<lit>", tok_line, tok_col));
            continue;
        }
        // Plain string.
        if c == '"' {
            let (tok_line, tok_col) = (line, col);
            let consumed = skip_plain_string(&chars, i);
            bump!(consumed);
            tokens.push(Token::new(TokenKind::Literal, "<lit>", tok_line, tok_col));
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let (tok_line, tok_col) = (line, col);
            let next = chars.get(i + 1);
            let after = chars.get(i + 2);
            let is_lifetime =
                next.is_some_and(|n| n.is_alphabetic() || *n == '_') && after != Some(&'\'');
            if is_lifetime {
                let start = i;
                let mut j = i + 1;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                bump!(j - i);
                tokens.push(Token::new(TokenKind::Lifetime, text, tok_line, tok_col));
            } else {
                // char literal: 'x', '\n', '\'', '\u{...}'
                let mut j = i + 1;
                if chars.get(j) == Some(&'\\') {
                    j += 2;
                    // \u{..}
                    while j < chars.len() && chars[j] != '\'' {
                        j += 1;
                    }
                } else {
                    j += 1;
                }
                if chars.get(j) == Some(&'\'') {
                    j += 1;
                }
                bump!(j - i);
                tokens.push(Token::new(TokenKind::Literal, "<lit>", tok_line, tok_col));
            }
            continue;
        }
        // `::` as one token; all other punctuation single-char.
        if c == ':' && chars.get(i + 1) == Some(&':') {
            tokens.push(Token::new(TokenKind::Punct, "::", line, col));
            bump!(2);
            continue;
        }
        tokens.push(Token::new(TokenKind::Punct, c.to_string(), line, col));
        bump!(1);
    }
    (tokens, suppressions)
}

/// Chars consumed by a plain `"..."` string starting at `i` (at the
/// opening quote).
fn skip_plain_string(chars: &[char], i: usize) -> usize {
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '"' => {
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    j - i
}

/// Does a raw-string literal (`r"`, `r#"`, `br"`, ...) start at `i`?
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// Parse `// wmtree-lint: allow(WM0101, WM0105)` → the codes.
fn parse_suppression(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("wmtree-lint:")?;
    let rest = comment[idx + "wmtree-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let end = rest.find(')')?;
    let codes: Vec<String> = rest[..end]
        .split(',')
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .collect();
    if codes.is_empty() {
        None
    } else {
        Some(codes)
    }
}

/// Mark lines covered by `#[cfg(test)]` / `#[test]` items as test code.
///
/// After such an attribute, any further attributes are skipped, then
/// the item's braced block (from its first `{` to the matching `}`) is
/// marked. This catches `mod tests { ... }` and `#[test] fn` items —
/// the only shapes the workspace uses.
fn mark_test_regions(tokens: &[Token], is_test_line: &mut [bool]) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            // Scan the attribute body for the ident `test`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut mentions_test = false;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct("]") {
                    depth -= 1;
                } else if tokens[j].is_ident("test") {
                    mentions_test = true;
                }
                j += 1;
            }
            if mentions_test {
                let attr_line = tokens[i].line;
                // Skip over any further attributes.
                let mut k = j;
                while k < tokens.len()
                    && tokens[k].is_punct("#")
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct("["))
                {
                    let mut d = 1usize;
                    k += 2;
                    while k < tokens.len() && d > 0 {
                        if tokens[k].is_punct("[") {
                            d += 1;
                        } else if tokens[k].is_punct("]") {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                // Find the item's opening brace, then its match.
                while k < tokens.len() && !tokens[k].is_punct("{") {
                    // A `;` first means a braceless item (e.g. `mod m;`).
                    if tokens[k].is_punct(";") {
                        break;
                    }
                    k += 1;
                }
                if k < tokens.len() && tokens[k].is_punct("{") {
                    let mut d = 0usize;
                    let mut m = k;
                    while m < tokens.len() {
                        if tokens[m].is_punct("{") {
                            d += 1;
                        } else if tokens[m].is_punct("}") {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        m += 1;
                    }
                    let end_line = tokens.get(m).map(|t| t.line).unwrap_or(usize::MAX);
                    for l in attr_line..=end_line.min(is_test_line.len()) {
                        if l >= 1 {
                            is_test_line[l - 1] = true;
                        }
                    }
                    i = m + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
}

// --------------------------------------------------------------- symbols

/// A `fn` definition found in the token stream (layer 3 input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Enclosing `mod`/`impl`/`trait` segments within the file, outermost
    /// first (e.g. `["inner", "Writer"]` for a method of `Writer` inside
    /// `mod inner`).
    pub path: Vec<String>,
    /// 1-based line of the name token.
    pub line: usize,
    /// 1-based column of the name token.
    pub col: usize,
    /// Token-index range of the braced body: `(open, close)` inclusive.
    /// `None` for a bodyless trait signature.
    pub body: Option<(usize, usize)>,
    /// The names the fn binds locally (parameters, `let`, `for` and
    /// closure-parameter patterns), each with the token index from
    /// which it is in scope. Empty for a bodyless signature.
    pub locals: Vec<(String, usize)>,
}

impl FnDef {
    /// Does the body bind `name` before token `at`? A plain call of
    /// such a name calls the local (a closure, a fn pointer), not a fn.
    pub fn binds(&self, name: &str, at: usize) -> bool {
        self.locals.iter().any(|(n, from)| n == name && *from < at)
    }
}

/// One `use` import: `use a::b::c as d;` → segments `[a, b, c]`,
/// alias `d` (the alias defaults to the last segment). Glob imports are
/// not recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseImport {
    /// Full path segments.
    pub segments: Vec<String>,
    /// The name the import binds locally.
    pub alias: String,
}

/// One call site: a (possibly path-qualified) identifier followed by
/// `(`. Macro invocations (`name!`) are never call sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments, last one the called name (`["serde_json",
    /// "to_string"]`, or just `["flush"]` for a method call).
    pub segments: Vec<String>,
    /// Preceded by `.` — a method call.
    pub is_method: bool,
    /// Token index of the first path segment (for span rendering).
    pub start_idx: usize,
    /// Token index of the called name.
    pub end_idx: usize,
}

/// Everything layer 3 extracts from one file's token stream.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SymbolTable {
    /// Every `fn` definition, in source order.
    pub fns: Vec<FnDef>,
    /// Every `use` import, in source order.
    pub imports: Vec<UseImport>,
    /// Every call site, in source order.
    pub calls: Vec<CallSite>,
}

impl SymbolTable {
    /// Index of the innermost fn whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (open, fn index)
        for (f, def) in self.fns.iter().enumerate() {
            if let Some((open, close)) = def.body {
                if open < idx && idx < close && best.is_none_or(|(o, _)| open > o) {
                    best = Some((open, f));
                }
            }
        }
        best.map(|(_, f)| f)
    }
}

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "fn",
    "unsafe", "where", "impl", "use", "pub", "mod", "const", "static", "ref", "mut", "dyn",
    "break", "continue", "struct", "enum", "trait", "type", "await", "async", "yield",
];

/// Extract the symbol table from a lexed token stream.
///
/// The scanner tracks brace depth and a stack of named scopes (`mod`,
/// `impl`, `trait`) so each fn gets a path like `module::Type::name`.
/// It deliberately under-approximates — turbofish calls, macro bodies,
/// and glob imports are skipped — because the taint layer treats an
/// unresolved call as no edge, never as a spurious one.
pub fn extract_symbols(tokens: &[Token]) -> SymbolTable {
    let mut table = SymbolTable::default();
    let mut depth = 0usize;
    // (segment, depth the segment's block lives at)
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth = depth.saturating_sub(1);
            while stack.last().is_some_and(|(_, d)| *d > depth) {
                stack.pop();
            }
            i += 1;
            continue;
        }
        if t.is_ident("use") {
            let end = scan_to_semicolon(tokens, i + 1);
            parse_use_tree(&tokens[i + 1..end], &mut Vec::new(), &mut table.imports);
            i = end;
            continue;
        }
        if t.is_ident("mod")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
            && tokens.get(i + 2).is_some_and(|t| t.is_punct("{"))
        {
            stack.push((tokens[i + 1].text.clone(), depth + 1));
            i += 2; // the `{` is handled by the main loop
            continue;
        }
        if t.is_ident("impl") || t.is_ident("trait") {
            let is_trait = t.is_ident("trait");
            let mut j = i + 1;
            let mut angle = 0usize;
            let mut after_for = false;
            let mut name: Option<String> = None;
            while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
                match &tokens[j] {
                    tk if tk.is_punct("<") => angle += 1,
                    tk if tk.is_punct(">") => angle = angle.saturating_sub(1),
                    tk if tk.is_ident("for") && !is_trait => {
                        after_for = true;
                        name = None;
                    }
                    // `impl Trait for Type` → Type; `impl Type` or
                    // `trait Name` → the first ident.
                    tk if tk.kind == TokenKind::Ident
                        && angle == 0
                        && (name.is_none() || after_for) =>
                    {
                        name = Some(tk.text.clone());
                        after_for = false;
                    }
                    _ => {}
                }
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| t.is_punct("{")) {
                stack.push((name.unwrap_or_else(|| "impl".to_string()), depth + 1));
            }
            i = j;
            continue;
        }
        if t.is_ident("fn")
            && tokens
                .get(i + 1)
                .is_some_and(|t| t.kind == TokenKind::Ident)
        {
            let name_tok = &tokens[i + 1];
            // Find the body `{` (or a `;` for a bodyless signature).
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
                j += 1;
            }
            let body = if tokens.get(j).is_some_and(|t| t.is_punct("{")) {
                let mut d = 0usize;
                let mut m = j;
                while m < tokens.len() {
                    if tokens[m].is_punct("{") {
                        d += 1;
                    } else if tokens[m].is_punct("}") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    m += 1;
                }
                Some((j, m.min(tokens.len().saturating_sub(1))))
            } else {
                None
            };
            table.fns.push(FnDef {
                name: name_tok.text.clone(),
                path: stack.iter().map(|(s, _)| s.clone()).collect(),
                line: name_tok.line,
                col: name_tok.col,
                body,
                locals: body
                    .map(|(open, close)| local_bindings(tokens, i + 2, open, close))
                    .unwrap_or_default(),
            });
            // Keep scanning from after the name so the body's own items
            // and call sites are still visited by this loop.
            i += 2;
            continue;
        }
        // Call site: Ident `(`, optionally preceded by a `a::b::` path.
        if t.kind == TokenKind::Ident
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
            && !NON_CALL_KEYWORDS.iter().any(|k| t.is_ident(k))
        {
            let mut j = i;
            while j >= 2 && tokens[j - 1].is_punct("::") && tokens[j - 2].kind == TokenKind::Ident {
                j -= 2;
            }
            // `fn name(` is the definition we already recorded.
            if !(j >= 1 && tokens[j - 1].is_ident("fn")) {
                let segments: Vec<String> =
                    (j..=i).step_by(2).map(|k| tokens[k].text.clone()).collect();
                let is_method = j >= 1 && tokens[j - 1].is_punct(".");
                table.calls.push(CallSite {
                    segments,
                    is_method,
                    start_idx: j,
                    end_idx: i,
                });
            }
        }
        i += 1;
    }
    table
}

/// The names a fn binds, each with the token index from which it is in
/// scope: its parameters (from the body's `{`, `sig` being the first
/// token after the fn's name), `let` patterns (from the statement's
/// `;`, or the block of an `if let` / `while let`), `for` patterns
/// (from `in`) and closure parameters (from the closing `|`). A scope
/// is never closed: a name stays bound to the end of the body, which
/// can only drop an edge, never invent one.
fn local_bindings(tokens: &[Token], sig: usize, open: usize, close: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut bind = |names: &[Token], from: usize| {
        for name in pattern_names(names) {
            out.push((name, from));
        }
    };
    // Parameters: the first `(` after the generics.
    let mut angle = 0usize;
    for k in sig..open {
        let t = &tokens[k];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") && !tokens[k - 1].is_punct("-") {
            angle = angle.saturating_sub(1);
        } else if t.is_punct("(") && angle == 0 {
            bind(&tokens[k + 1..pattern_end(tokens, k + 1, open, &[])], open);
            break;
        }
    }
    let mut k = open + 1;
    while k < close {
        let t = &tokens[k];
        let prev = &tokens[k - 1];
        if t.is_ident("let") {
            let eq = pattern_end(tokens, k + 1, close, &["=", ";"]);
            // An `if let` / `while let` binds in its block, a statement
            // after its `;`.
            let scoped = prev.is_ident("if") || prev.is_ident("while") || prev.is_punct("&");
            let from = pattern_end(tokens, eq, close, if scoped { &["{"] } else { &[";"] });
            bind(&tokens[k + 1..eq], from);
            k = eq;
        } else if t.is_ident("for") && !tokens[k + 1].is_punct("<") {
            let kw = pattern_end(tokens, k + 1, close, &["in"]);
            bind(&tokens[k + 1..kw], kw);
            k = kw;
        } else if t.is_punct("|")
            && (prev.is_ident("move")
                || prev.is_ident("return")
                || (prev.kind == TokenKind::Punct
                    && !matches!(prev.text.as_str(), ")" | "]" | "}" | "?" | "|")))
        {
            let bar = pattern_end(tokens, k + 1, close, &["|"]);
            bind(&tokens[k + 1..bar], bar);
            k = bar;
        }
        k += 1;
    }
    out
}

/// Index of the first token in `from..end` whose text is one of `stops`
/// outside any bracket (or of the bracket that closes the group around
/// `from`; `end` if neither comes).
fn pattern_end(tokens: &[Token], from: usize, end: usize, stops: &[&str]) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().take(end).skip(from) {
        if depth == 0 && stops.contains(&t.text.as_str()) {
            return k;
        }
        if matches!(t.text.as_str(), "(" | "[" | "{") && t.kind == TokenKind::Punct {
            depth += 1;
        } else if matches!(t.text.as_str(), ")" | "]" | "}") && t.kind == TokenKind::Punct {
            if depth == 0 {
                return k;
            }
            depth -= 1;
        }
    }
    end
}

/// The names a comma-separated list of patterns binds, each pattern
/// optionally typed (`pat: Type`).
fn pattern_names(tokens: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    let mut depth = 0usize;
    let mut in_type = false;
    for (k, t) in tokens.iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "(" | "[" | "{" | "<") => depth += 1,
            (TokenKind::Punct, ")" | "]" | "}") => depth = depth.saturating_sub(1),
            (TokenKind::Punct, ">") if k == 0 || !tokens[k - 1].is_punct("-") => {
                depth = depth.saturating_sub(1)
            }
            (TokenKind::Punct, ",") if depth == 0 => in_type = false,
            (TokenKind::Punct, ":") if depth == 0 => in_type = true,
            (TokenKind::Ident, name) if !in_type && is_binding(tokens, k, depth) => {
                names.push(name.to_string())
            }
            _ => {}
        }
    }
    names
}

/// Is the identifier at `k`, `depth` brackets deep in a pattern, a
/// binding? Keywords, path segments, struct and variant names, and the
/// field names of a struct pattern (`field: binding`) are not.
fn is_binding(tokens: &[Token], k: usize, depth: usize) -> bool {
    let keyword = matches!(
        tokens[k].text.as_str(),
        "mut" | "ref" | "box" | "self" | "Self" | "_"
    );
    let path_segment = k > 0 && tokens[k - 1].is_punct("::");
    let names_a_type_or_field = tokens.get(k + 1).is_some_and(|n| {
        n.kind == TokenKind::Punct
            && (matches!(n.text.as_str(), "(" | "{" | "::" | "!") || (n.text == ":" && depth > 0))
    });
    !keyword && !path_segment && !names_a_type_or_field
}

/// Token index just past the terminating `;` (or end of stream).
fn scan_to_semicolon(tokens: &[Token], mut i: usize) -> usize {
    while i < tokens.len() && !tokens[i].is_punct(";") {
        i += 1;
    }
    i
}

/// Parse a use tree (tokens between `use` and `;`), appending one
/// [`UseImport`] per leaf. Handles `a::b`, `a::b as c`, nested groups
/// `a::{b, c::d}`, and skips `*` globs.
fn parse_use_tree(tokens: &[Token], prefix: &mut Vec<String>, out: &mut Vec<UseImport>) {
    let mut i = 0;
    let base_len = prefix.len();
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident && !t.is_ident("as") {
            prefix.push(t.text.clone());
            i += 1;
            continue;
        }
        if t.is_punct("::") {
            i += 1;
            continue;
        }
        if t.is_ident("as") {
            if let Some(alias) = tokens.get(i + 1) {
                if !prefix.is_empty() {
                    out.push(UseImport {
                        segments: prefix.clone(),
                        alias: alias.text.clone(),
                    });
                }
                prefix.truncate(base_len);
            }
            i += 2;
            continue;
        }
        if t.is_punct("{") {
            // Split the group body on top-level commas, recursing with
            // the current prefix for each element.
            let mut d = 1usize;
            let mut j = i + 1;
            let mut start = j;
            while j < tokens.len() && d > 0 {
                if tokens[j].is_punct("{") {
                    d += 1;
                } else if tokens[j].is_punct("}") {
                    d -= 1;
                    if d == 0 {
                        flush_group(&tokens[start..j], prefix, out);
                    }
                } else if tokens[j].is_punct(",") && d == 1 {
                    flush_group(&tokens[start..j], prefix, out);
                    start = j + 1;
                }
                j += 1;
            }
            prefix.truncate(base_len);
            i = j;
            continue;
        }
        if t.is_punct(",") {
            // End of one top-level element (only inside groups; handled
            // there). At the top level a `,` cannot occur.
            flush_leaf(prefix, base_len, out);
            i += 1;
            continue;
        }
        // `*` glob or anything unexpected: drop the pending element.
        prefix.truncate(base_len);
        i += 1;
    }
    flush_leaf(prefix, base_len, out);
}

/// Recurse into one group element with the shared prefix.
fn flush_group(tokens: &[Token], prefix: &mut Vec<String>, out: &mut Vec<UseImport>) {
    let depth = prefix.len();
    parse_use_tree(tokens, prefix, out);
    prefix.truncate(depth);
}

/// Emit the pending path (if any) as an import aliased to its last
/// segment.
fn flush_leaf(prefix: &mut Vec<String>, base_len: usize, out: &mut Vec<UseImport>) {
    if prefix.len() > base_len {
        if let Some(alias) = prefix.last().cloned() {
            // `use a::b::self;` and `use x::y::Self` never appear in the
            // workspace; a lone keyword leaf is dropped.
            out.push(UseImport {
                segments: prefix.clone(),
                alias,
            });
        }
    }
    prefix.truncate(base_len);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        SourceFile::parse("t.rs", "t", src, false)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_tokens() {
        let src = r##"
            // SystemTime::now in a comment
            /* Instant::now in a block /* nested */ comment */
            let s = "SystemTime::now in a string";
            let r = r#"Instant::now in a raw string"#;
            let c = 'x';
            fn real() {}
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        let f = SourceFile::parse("t.rs", "t", src, false);
        assert!(f
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
    }

    #[test]
    fn double_colon_is_one_token() {
        let f = SourceFile::parse("t.rs", "t", "a::b", false);
        assert_eq!(f.tokens.len(), 3);
        assert!(f.tokens[1].is_punct("::"));
    }

    #[test]
    fn positions_are_one_based() {
        let f = SourceFile::parse("t.rs", "t", "let x = 1;\nlet y = 2;", false);
        let y = f.tokens.iter().find(|t| t.is_ident("y")).unwrap();
        assert_eq!((y.line, y.col), (2, 5));
    }

    #[test]
    fn cfg_test_region_marked() {
        let src = "\
fn prod() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        prod();
    }
}";
        let f = SourceFile::parse("t.rs", "t", src, false);
        assert!(!f.is_test(1));
        assert!(f.is_test(3), "attribute line is test");
        assert!(f.is_test(7), "body is test");
        assert!(f.is_test(9), "closing brace is test");
    }

    #[test]
    fn test_attr_fn_marked() {
        let src = "#[test]\nfn check() { work(); }\nfn prod() {}";
        let f = SourceFile::parse("t.rs", "t", src, false);
        assert!(f.is_test(2));
        assert!(!f.is_test(3));
    }

    #[test]
    fn whole_file_test_flag() {
        let f = SourceFile::parse("tests/x.rs", "t", "fn a() {}", true);
        assert!(f.is_test(1));
    }

    #[test]
    fn suppression_parsing() {
        let src = "let a = 1; // wmtree-lint: allow(WM0105)\nlet b = 2;\nlet c = 3;";
        let f = SourceFile::parse("t.rs", "t", src, false);
        assert!(f.is_suppressed("WM0105", 1));
        assert!(
            !f.is_suppressed("WM0105", 2),
            "a trailing comment covers only its own line"
        );
        assert!(!f.is_suppressed("WM0101", 1));
        // A comment alone on its line covers the next line instead.
        let own = "// wmtree-lint: allow(WM0105)\nlet b = y.unwrap();";
        let f2 = SourceFile::parse("t.rs", "t", own, false);
        assert!(f2.is_suppressed("WM0105", 2));
    }

    #[test]
    fn suppression_multiple_codes() {
        let f = SourceFile::parse(
            "t.rs",
            "t",
            "// wmtree-lint: allow(WM0101, WM0102)\nx();",
            false,
        );
        assert!(f.is_suppressed("WM0101", 2));
        assert!(f.is_suppressed("WM0102", 2));
    }

    #[test]
    fn symbols_fns_mods_and_impls() {
        let src = "\
pub fn top() { helper(); }
mod inner {
    impl Writer {
        pub fn write_out(&self) { self.flush(); }
    }
    impl Render for Writer {
        fn render(&self) {}
    }
}
trait Sink {
    fn emit(&self);
}";
        let f = SourceFile::parse("t.rs", "t", src, false);
        let t = extract_symbols(&f.tokens);
        let keys: Vec<String> = t
            .fns
            .iter()
            .map(|d| {
                let mut p = d.path.clone();
                p.push(d.name.clone());
                p.join("::")
            })
            .collect();
        assert_eq!(
            keys,
            vec![
                "top",
                "inner::Writer::write_out",
                "inner::Writer::render",
                "Sink::emit"
            ]
        );
        // `emit` has no body; everything else does.
        assert!(t.fns[3].body.is_none());
        assert!(t.fns.iter().take(3).all(|d| d.body.is_some()));
    }

    #[test]
    fn symbols_calls_and_enclosing_fn() {
        let src = "\
fn a() { b(); x::y::c(); v.push(1); }
fn b() {}";
        let f = SourceFile::parse("t.rs", "t", src, false);
        let t = extract_symbols(&f.tokens);
        let calls: Vec<(Vec<String>, bool)> = t
            .calls
            .iter()
            .map(|c| (c.segments.clone(), c.is_method))
            .collect();
        assert_eq!(
            calls,
            vec![
                (vec!["b".to_string()], false),
                (
                    vec!["x".to_string(), "y".to_string(), "c".to_string()],
                    false
                ),
                (vec!["push".to_string()], true),
            ]
        );
        // All three calls sit inside fn `a` (index 0).
        for c in &t.calls {
            assert_eq!(t.enclosing_fn(c.end_idx), Some(0), "{:?}", c.segments);
        }
    }

    #[test]
    fn symbols_locals_bind_from_where_their_scope_starts() {
        let src = "\
fn a<F: Fn() -> u8>(f: F, (g, mut h): (u8, u8), s: &S) -> u8 {
    let x = x();
    if let Some(y) = y() { y(); }
    for &(n, _, r) in rs() { r(n); }
    v.map(|k: Vec<u8>, Pt { p: q, .. }| k(q)).any(|| w(a || b));
    let Some(z) = z() else { return };
    0
}";
        let f = SourceFile::parse("t.rs", "t", src, false);
        let t = extract_symbols(&f.tokens);
        let def = &t.fns[0];
        let mut names: Vec<&str> = def.locals.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            ["f", "g", "h", "k", "n", "q", "r", "s", "x", "y", "z"]
        );
        // Each plain call: is it a call of a local?
        let local: Vec<(&str, bool)> = t
            .calls
            .iter()
            .filter(|c| !c.is_method)
            .map(|c| {
                let name = c.segments[0].as_str();
                (name, def.binds(name, c.start_idx))
            })
            .collect();
        assert_eq!(
            local,
            [
                ("Fn", false),
                ("x", false),
                ("Some", false),
                ("y", false),
                ("y", true),
                ("rs", false),
                ("r", true),
                ("k", true),
                ("w", false),
                ("Some", false),
                ("z", false),
            ]
        );
    }

    #[test]
    fn symbols_calls_skip_macros_and_keywords() {
        let src = "fn a() { println!(\"x\"); if (1 > 0) { vec![] } else { vec![] }; }";
        let f = SourceFile::parse("t.rs", "t", src, false);
        let t = extract_symbols(&f.tokens);
        assert!(t.calls.is_empty(), "{:?}", t.calls);
    }

    #[test]
    fn symbols_use_imports() {
        let src = "\
use a::b::c;
use d::e as f;
use g::{h, i::j, k as l};
use m::*;
pub fn z() {}";
        let f = SourceFile::parse("t.rs", "t", src, false);
        let t = extract_symbols(&f.tokens);
        let got: Vec<(String, String)> = t
            .imports
            .iter()
            .map(|u| (u.segments.join("::"), u.alias.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("a::b::c".to_string(), "c".to_string()),
                ("d::e".to_string(), "f".to_string()),
                ("g::h".to_string(), "h".to_string()),
                ("g::i::j".to_string(), "j".to_string()),
                ("g::k".to_string(), "l".to_string()),
            ]
        );
    }

    #[test]
    fn numeric_literals_with_method_calls() {
        let f = SourceFile::parse(
            "t.rs",
            "t",
            "let x = 1.max(2); let y = 1..3; let z = 1.5;",
            false,
        );
        assert!(f.tokens.iter().any(|t| t.is_ident("max")));
        // 1.5 stays a single literal.
        let lits = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lits, 5); // 1, 2, 1, 3, 1.5
    }
}
