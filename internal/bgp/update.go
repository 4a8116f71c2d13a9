package bgp

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Update is the BGP UPDATE message. Withdrawn and NLRI carry IPv4
// prefixes; IPv6 reachability travels in Attrs.MPReach / Attrs.MPUnreach.
type Update struct {
	Withdrawn []PathPrefix
	Attrs     PathAttrs
	NLRI      []PathPrefix
}

// Type implements Message.
func (*Update) Type() MessageType { return MsgUpdate }

func (u *Update) marshalBody(dst []byte, opts *Options) ([]byte, error) {
	withPathID := opts.addPath(AFIIPv4)

	withdrawn, err := appendNLRI(nil, u.Withdrawn, withPathID)
	if err != nil {
		return nil, err
	}
	if len(withdrawn) > 0xffff {
		return nil, ErrAttrTooLong
	}
	dst = append(dst, byte(len(withdrawn)>>8), byte(len(withdrawn)))
	dst = append(dst, withdrawn...)

	// An UPDATE that only withdraws routes omits path attributes.
	var attrs []byte
	if len(u.NLRI) > 0 || u.Attrs.MPReach != nil || u.Attrs.MPUnreach != nil || len(u.Attrs.ASPath) > 0 {
		attrs, err = u.Attrs.marshalAttrs(opts)
		if err != nil {
			return nil, err
		}
	}
	if len(attrs) > 0xffff {
		return nil, ErrAttrTooLong
	}
	dst = append(dst, byte(len(attrs)>>8), byte(len(attrs)))
	dst = append(dst, attrs...)

	return appendNLRI(dst, u.NLRI, withPathID)
}

func unmarshalUpdate(body []byte, opts *Options) (*Update, error) {
	if len(body) < 4 {
		return nil, ErrTruncated
	}
	withPathID := opts.addPath(AFIIPv4)
	u := &Update{}

	wLen := int(binary.BigEndian.Uint16(body[0:2]))
	body = body[2:]
	if len(body) < wLen {
		return nil, ErrTruncated
	}
	var err error
	u.Withdrawn, err = parseNLRI(body[:wLen], AFIIPv4, withPathID)
	if err != nil {
		return nil, err
	}
	body = body[wLen:]

	if len(body) < 2 {
		return nil, ErrTruncated
	}
	aLen := int(binary.BigEndian.Uint16(body[0:2]))
	body = body[2:]
	if len(body) < aLen {
		return nil, ErrTruncated
	}
	u.Attrs, err = parseAttrs(body[:aLen], opts)
	if err != nil {
		return nil, err
	}
	body = body[aLen:]

	u.NLRI, err = parseNLRI(body, AFIIPv4, withPathID)
	if err != nil {
		return nil, err
	}
	return u, nil
}

// AllAnnounced returns every announced prefix regardless of family: the
// IPv4 NLRI plus any MP_REACH NLRI. The result may share the UPDATE's
// memory (see bothFamilies): read it, do not write its elements.
func (u *Update) AllAnnounced() []PathPrefix {
	var v6 []PathPrefix
	if u.Attrs.MPReach != nil {
		v6 = u.Attrs.MPReach.NLRI
	}
	return bothFamilies(u.NLRI, v6)
}

// AllWithdrawn returns every withdrawn prefix regardless of family,
// sharing the UPDATE's memory like AllAnnounced.
func (u *Update) AllWithdrawn() []PathPrefix {
	var v6 []PathPrefix
	if u.Attrs.MPUnreach != nil {
		v6 = u.Attrs.MPUnreach.NLRI
	}
	return bothFamilies(u.Withdrawn, v6)
}

// bothFamilies joins an UPDATE's IPv4 and IPv6 prefixes. With one family
// present it returns that field itself, its capacity clipped to its
// length so that a caller's append copies instead of writing into the
// UPDATE; only with both present does it build a new slice.
func bothFamilies(v4, v6 []PathPrefix) []PathPrefix {
	switch {
	case len(v6) == 0:
		return v4[:len(v4):len(v4)]
	case len(v4) == 0:
		return v6[:len(v6):len(v6)]
	}
	return append(v4[:len(v4):len(v4)], v6...)
}

func (u *Update) String() string {
	var b strings.Builder
	b.WriteString("UPDATE")
	if w := u.AllWithdrawn(); len(w) > 0 {
		fmt.Fprintf(&b, " withdraw=%v", w)
	}
	if n := u.AllAnnounced(); len(n) > 0 {
		fmt.Fprintf(&b, " announce=%v attrs={%s}", n, u.Attrs.String())
	}
	return b.String()
}
