// Package cpp implements the minimal C preprocessor required by the
// SafeFlow corpus: #include "file", object-like #define/#undef,
// #ifdef/#ifndef/#else/#endif conditionals, and include-guard handling.
//
// The output is a single flattened buffer in which "#line N \"file\""
// directives record the original provenance of every line, so downstream
// diagnostics point at the original files. Function-like macros are not
// supported; the corpus does not use them (the paper's systems are plain
// embedded C).
package cpp

import (
	"fmt"
	"strings"
)

// Source supplies the text of include files by name.
type Source interface {
	// ReadFile returns the contents of the named file.
	ReadFile(name string) (string, error)
}

// MapSource is a Source backed by an in-memory map, used for the embedded
// corpus and tests.
type MapSource map[string]string

// ReadFile implements Source.
func (m MapSource) ReadFile(name string) (string, error) {
	if s, ok := m[name]; ok {
		return s, nil
	}
	return "", fmt.Errorf("include file %q not found", name)
}

// Error is a preprocessing error with file/line provenance.
type Error struct {
	File string
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

// Preprocessor expands a translation unit.
type Preprocessor struct {
	src      Source
	defines  map[string]string
	guards   map[string]bool // #ifndef-guarded files already included
	includes []string        // include stack for cycle detection
	out      strings.Builder
	errs     []error
}

// New returns a preprocessor reading includes from src.
func New(src Source) *Preprocessor {
	return &Preprocessor{
		src:     src,
		defines: make(map[string]string),
		guards:  make(map[string]bool),
	}
}

// Define predefines an object-like macro, as with -D on a C compiler.
func (p *Preprocessor) Define(name, value string) { p.defines[name] = value }

// Expand preprocesses the named top-level file and returns the flattened
// buffer. Errors are accumulated; the first is returned (with the rest
// available via Errors) so callers can both fail fast and report all.
func (p *Preprocessor) Expand(name string) (string, error) {
	text, err := p.src.ReadFile(name)
	if err != nil {
		return "", err
	}
	p.processFile(name, text)
	if len(p.errs) > 0 {
		return p.out.String(), p.errs[0]
	}
	return p.out.String(), nil
}

// Errors returns all accumulated preprocessing errors.
func (p *Preprocessor) Errors() []error { return p.errs }

func (p *Preprocessor) errorf(file string, line int, format string, args ...any) {
	p.errs = append(p.errs, &Error{File: file, Line: line, Msg: fmt.Sprintf(format, args...)})
}

const maxIncludeDepth = 64

type condState struct {
	active      bool // lines in the current branch are emitted
	everActive  bool // some branch of this conditional was taken
	parentLive  bool // the enclosing context was active
	sawElse     bool
	defineGuard string // for include-guard detection: the #ifndef macro
}

func (p *Preprocessor) processFile(name, text string) {
	if len(p.includes) >= maxIncludeDepth {
		p.errorf(name, 1, "include depth exceeds %d (cycle?)", maxIncludeDepth)
		return
	}
	for _, inc := range p.includes {
		if inc == name {
			p.errorf(name, 1, "recursive include of %q", name)
			return
		}
	}
	p.includes = append(p.includes, name)
	defer func() { p.includes = p.includes[:len(p.includes)-1] }()

	fmt.Fprintf(&p.out, "#line %d %q\n", 1, name)
	var conds []condState
	lines := splitLinesJoinContinuations(text)
	needSync := false
	for _, ln := range lines {
		lineNo := ln.num
		line := ln.text
		trimmed := strings.TrimSpace(line)
		active := true
		for _, c := range conds {
			if !c.active {
				active = false
				break
			}
		}

		if strings.HasPrefix(trimmed, "#") {
			directive := strings.TrimSpace(trimmed[1:])
			word, rest := splitWord(directive)
			switch word {
			case "include":
				if !active {
					continue
				}
				target, ok := parseIncludeTarget(rest)
				if !ok {
					p.errorf(name, lineNo, "malformed #include %q", rest)
					continue
				}
				if strings.HasPrefix(rest, "<") {
					// System headers supply nothing the corpus needs; the
					// known external functions are declared as builtins by
					// the semantic analyzer.
					continue
				}
				if p.guards[target] {
					continue
				}
				inc, err := p.src.ReadFile(target)
				if err != nil {
					p.errorf(name, lineNo, "cannot include %q: %v", target, err)
					continue
				}
				p.processFile(target, inc)
				needSync = true
			case "define":
				if !active {
					continue
				}
				macro, val := splitWord(rest)
				if macro == "" {
					p.errorf(name, lineNo, "malformed #define")
					continue
				}
				// "#define F(x) ..." — an open paren immediately after the
				// macro name (no space) makes it function-like.
				trimmedRest := strings.TrimSpace(rest)
				if len(trimmedRest) > len(macro) && trimmedRest[len(macro)] == '(' {
					p.errorf(name, lineNo, "function-like macros are not supported: %s", macro)
					continue
				}
				// Substitute existing macros into the body now so chains
				// (#define B A) resolve to their final text.
				p.defines[macro] = strings.TrimSpace(p.substitute(val))
				// Include-guard bookkeeping: "#ifndef G / #define G" prefix.
				if len(conds) > 0 && conds[len(conds)-1].defineGuard == macro {
					p.guards[name] = true
				}
			case "undef":
				if !active {
					continue
				}
				macro, _ := splitWord(rest)
				delete(p.defines, macro)
			case "ifdef", "ifndef":
				_, defined := p.defines[strings.TrimSpace(rest)]
				want := word == "ifdef"
				branch := defined == want
				conds = append(conds, condState{
					active:      active && branch,
					everActive:  branch,
					parentLive:  active,
					defineGuard: guardNameIf(word == "ifndef", strings.TrimSpace(rest)),
				})
				needSync = true
			case "if":
				// Only "#if 0" and "#if 1" are supported — enough to disable
				// blocks in the corpus.
				v := strings.TrimSpace(rest)
				branch := v != "0"
				conds = append(conds, condState{active: active && branch, everActive: branch, parentLive: active})
				needSync = true
			case "else":
				if len(conds) == 0 {
					p.errorf(name, lineNo, "#else without #if")
					continue
				}
				c := &conds[len(conds)-1]
				if c.sawElse {
					p.errorf(name, lineNo, "duplicate #else")
					continue
				}
				c.sawElse = true
				c.active = c.parentLive && !c.everActive
				c.everActive = true
				needSync = true
			case "endif":
				if len(conds) == 0 {
					p.errorf(name, lineNo, "#endif without #if")
					continue
				}
				conds = conds[:len(conds)-1]
				needSync = true
			case "pragma", "error", "warning", "line":
				// #pragma ignored; #error only fires when active.
				if word == "error" && active {
					p.errorf(name, lineNo, "#error %s", rest)
				}
			default:
				if active {
					p.errorf(name, lineNo, "unsupported preprocessor directive #%s", word)
				}
			}
			continue
		}

		if !active {
			continue
		}
		if needSync {
			fmt.Fprintf(&p.out, "#line %d %q\n", lineNo, name)
			needSync = false
		}
		p.out.WriteString(p.substitute(line))
		p.out.WriteByte('\n')
	}
	if len(conds) > 0 {
		p.errorf(name, len(lines), "unterminated conditional (%d open)", len(conds))
	}
}

// Includes returns the targets of the quoted #include directives in
// text, in directive order, parsed exactly as Expand parses them
// ("# include", backslash-continued lines). Conditionals are not
// evaluated, so the result covers every file an expansion of text could
// read under any set of defines.
func Includes(text string) []string {
	var out []string
	eachLine(text, func(_ int, line string) {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			return
		}
		word, rest := splitWord(strings.TrimSpace(trimmed[1:]))
		if word != "include" || strings.HasPrefix(rest, "<") {
			return
		}
		if target, ok := parseIncludeTarget(rest); ok {
			out = append(out, target)
		}
	})
	return out
}

// Walk visits every file reachable from roots through quoted includes
// (see Includes) exactly once, depth-first in directive order. visit
// receives the file's text, or the error reading it; an unreadable
// file's includes are not followed.
func Walk(src Source, roots []string, visit func(name, text string, err error)) {
	seen := make(map[string]bool)
	var walk func(name string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		text, err := src.ReadFile(name)
		visit(name, text, err)
		if err != nil {
			return
		}
		for _, inc := range Includes(text) {
			walk(inc)
		}
	}
	for _, r := range roots {
		walk(r)
	}
}

func guardNameIf(isIfndef bool, name string) string {
	if isIfndef {
		return name
	}
	return ""
}

type numberedLine struct {
	num  int
	text string
}

// splitLinesJoinContinuations splits text into lines, joining backslash
// continuations while preserving the starting line number of each joined
// line.
func splitLinesJoinContinuations(text string) []numberedLine {
	var out []numberedLine
	eachLine(text, func(num int, line string) {
		out = append(out, numberedLine{num: num, text: line})
	})
	return out
}

// eachLine calls fn for every line of text (split at "\n", as
// strings.Split does) with backslash continuations joined, passing the
// number of the line's first physical line. Only joined lines allocate.
func eachLine(text string, fn func(num int, line string)) {
	rest, more := text, true
	next := func() string {
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			more = false
		}
		return strings.TrimSuffix(line, "\r")
	}
	for num := 1; more; num++ {
		start := num
		line := next()
		for strings.HasSuffix(line, "\\") && more {
			num++
			line = strings.TrimSuffix(line, "\\") + next()
		}
		fn(start, line)
	}
}

func splitWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if !(ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9') {
			return s[:i], strings.TrimSpace(s[i:])
		}
	}
	return s, ""
}

func parseIncludeTarget(rest string) (string, bool) {
	rest = strings.TrimSpace(rest)
	if len(rest) >= 2 && rest[0] == '"' {
		if end := strings.IndexByte(rest[1:], '"'); end >= 0 {
			return rest[1 : 1+end], true
		}
		return "", false
	}
	if len(rest) >= 2 && rest[0] == '<' {
		if end := strings.IndexByte(rest, '>'); end > 0 {
			return rest[1:end], true
		}
		return "", false
	}
	return "", false
}

// substitute performs object-like macro replacement on a single line,
// honoring identifier boundaries and skipping string/char literals and
// comments conservatively (comment contents are left alone only for line
// comments; block-comment state is not tracked across lines, which is
// acceptable because macros expanding inside comments are harmless to the
// lexer).
func (p *Preprocessor) substitute(line string) string {
	if len(p.defines) == 0 {
		return line
	}
	var sb strings.Builder
	i := 0
	for i < len(line) {
		ch := line[i]
		switch {
		case ch == '"' || ch == '\'':
			quote := ch
			sb.WriteByte(ch)
			i++
			for i < len(line) {
				sb.WriteByte(line[i])
				if line[i] == '\\' && i+1 < len(line) {
					i++
					sb.WriteByte(line[i])
					i++
					continue
				}
				if line[i] == quote {
					i++
					break
				}
				i++
			}
		case ch == '/' && i+1 < len(line) && line[i+1] == '/':
			sb.WriteString(line[i:])
			return sb.String()
		case isIdentByte(ch) && !isDigitByte(ch):
			j := i
			for j < len(line) && isIdentByte(line[j]) {
				j++
			}
			word := line[i:j]
			if val, ok := p.defines[word]; ok {
				sb.WriteString(val)
			} else {
				sb.WriteString(word)
			}
			i = j
		default:
			sb.WriteByte(ch)
			i++
		}
	}
	return sb.String()
}

func isIdentByte(ch byte) bool {
	return ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch >= '0' && ch <= '9'
}

func isDigitByte(ch byte) bool { return ch >= '0' && ch <= '9' }
