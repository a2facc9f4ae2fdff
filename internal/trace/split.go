package trace

import (
	"bufio"
	"bytes"
	"io"
)

// maxFields is how many fields of one record the splitter keeps; a
// record with more is still counted exactly, so a wrong field count is
// reported with its true value.
const maxFields = 16

// splitter cuts CSV input into records by the rules encoding/csv
// applies with LazyQuotes set and no fixed field count, without
// allocating per record:
//
//   - records end at '\n'; "\r\n" counts as '\n', and a '\r' right
//     before end of input is dropped;
//   - empty lines between records are skipped (a whitespace-only line
//     is a record of one field, which callers treat as blank);
//   - a field that starts with '"' is quoted: it runs to the next '"'
//     followed by ',', a line end or end of input, may span lines, and
//     "" inside it stands for one '"'; any other '"' inside it is kept
//     literally, and an unterminated quote runs to end of input;
//   - a '"' inside an unquoted field is an ordinary byte.
//
// A UTF-8 byte-order mark at the very start is skipped. Fields are
// slices of the reader's line buffer (or, for records with quotes, of
// one reused unescape buffer) and stay valid until the next call.
type splitter struct {
	br      *bufio.Reader
	long    []byte // a line longer than br's buffer, reassembled
	unq     []byte // unescaped field bytes of a record with quotes
	ends    [maxFields]int
	fields  [maxFields][]byte
	nf      int // fields in the record, including any beyond maxFields
	line    int // line the current record starts on
	numLine int // lines read so far
}

func newSplitter(r io.Reader) *splitter { return &splitter{br: stripBOM(r)} }

// field returns field i of the current record (i < min(nf, maxFields)).
func (s *splitter) field(i int) []byte { return s.fields[i] }

// readLine returns the next line with "\r\n" normalised to "\n".
func (s *splitter) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.long = append(s.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			s.long = append(s.long, line...)
		}
		line = s.long
	}
	n := len(line)
	if n > 0 && err == io.EOF {
		err = nil
		if line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	s.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the length of b's trailing '\n' (0 or 1).
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// next reads the next record. It returns io.EOF at end of input; any
// other error is a read error, returned with whatever the record held.
func (s *splitter) next() error {
	var line []byte
	var err error
	for err == nil {
		line, err = s.readLine()
		if err == nil && len(line) == lengthNL(line) {
			continue // empty line
		}
		break
	}
	if err == io.EOF {
		return err
	}
	s.line = s.numLine
	s.nf = 0
	if bytes.IndexByte(line, '"') < 0 {
		// No quotes: every field is a slice of the line.
		line = line[:len(line)-lengthNL(line)]
		for {
			i := bytes.IndexByte(line, ',')
			if i < 0 {
				s.add(line)
				return err
			}
			s.add(line[:i])
			line = line[i+1:]
		}
	}
	return s.nextQuoted(line, err)
}

func (s *splitter) add(f []byte) {
	if s.nf < maxFields {
		s.fields[s.nf] = f
	}
	s.nf++
}

// nextQuoted splits a record whose first line holds a '"', unescaping
// into s.unq; quoted fields may pull in further lines.
func (s *splitter) nextQuoted(line []byte, err error) error {
	s.unq = s.unq[:0]
	end := func() {
		if s.nf < maxFields {
			s.ends[s.nf] = len(s.unq)
		}
		s.nf++
	}
fields:
	for {
		if len(line) == 0 || line[0] != '"' {
			i := bytes.IndexByte(line, ',')
			f := line
			if i >= 0 {
				f = f[:i]
			} else {
				f = f[:len(f)-lengthNL(f)]
			}
			s.unq = append(s.unq, f...)
			end()
			if i < 0 {
				break
			}
			line = line[i+1:]
			continue
		}
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				s.unq = append(s.unq, line[:i]...)
				line = line[i+1:]
				switch {
				case len(line) > 0 && line[0] == '"': // "" escape
					s.unq = append(s.unq, '"')
					line = line[1:]
				case len(line) > 0 && line[0] == ',': // end of field
					line = line[1:]
					end()
					continue fields
				case len(line) == lengthNL(line): // end of record
					end()
					break fields
				default: // bare quote, kept
					s.unq = append(s.unq, '"')
				}
			case len(line) > 0: // the field runs onto the next line
				s.unq = append(s.unq, line...)
				if err != nil {
					break fields
				}
				line, err = s.readLine()
				if err == io.EOF {
					err = nil
				}
			default: // end of input inside the quotes
				end()
				break fields
			}
		}
	}
	start := 0
	for i := 0; i < s.nf && i < maxFields; i++ {
		s.fields[i] = s.unq[start:s.ends[i]]
		start = s.ends[i]
	}
	return err
}
