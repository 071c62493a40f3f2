package obs

import (
	"bufio"
	"fmt"
	"io"
)

// WriteText writes the recorder's held events to w as plain text, one
// tab-separated line per event in emission order (oldest first):
//
//	<cycle>	<track>	<kind>	0x<arg>[	dur=<cycles>]
//
// Spans (flit hops, stalls, any event with a duration) carry the dur
// field. A trailer line "# total=<emitted> dropped=<overwritten>"
// closes the output, so a wrapped ring is visible in the file itself.
// Like the Chrome export the output is a pure function of the recorded
// stream. Safe on a nil recorder (writes only the trailer).
func (r *Recorder) WriteText(w io.Writer) error {
	// bufio.Writer errors are sticky: Flush reports the first one.
	bw := bufio.NewWriter(w)
	for _, e := range r.Events() {
		fmt.Fprintf(bw, "%d\t%s\t%s\t%#x", e.At, r.TrackName(DomainOf(e.Kind), e.Track), e.Kind, e.Arg)
		if e.isSpan() {
			fmt.Fprintf(bw, "\tdur=%d", e.Dur)
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintf(bw, "# total=%d dropped=%d\n", r.Total(), r.Dropped())
	return bw.Flush()
}
