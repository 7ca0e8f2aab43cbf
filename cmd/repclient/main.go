// Command repclient talks to a reputation server from the command line:
// registration, activation, login, lookups on real files, voting,
// remarks on other users' comments and vendor reports.
//
// Usage:
//
//	repclient -server http://localhost:8080 register -user alice -pass pw -email a@example.com
//	repclient -server ... activate -token <token from the activation mail>
//	repclient -server ... lookup /path/to/file.exe
//	repclient -server ... vote -user alice -pass pw -score 3 -comment "pop-ups" /path/file.exe
//	repclient -server ... remark -user bob -pass pw <comment-id> up|down
//	repclient -server ... vendor "Acme Corp"
//	repclient -server ... stats
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"softreputation/internal/client"
	"softreputation/internal/core"
	"softreputation/internal/identity"
	"softreputation/internal/wire"
)

func main() {
	serverURL := flag.String("server", "http://localhost:8080", "server base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("repclient: need a command: register | activate | lookup | vote | remark | vendor | stats")
	}
	api := client.NewAPI(*serverURL, nil)

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "register":
		cmdRegister(api, rest)
	case "activate":
		cmdActivate(api, rest)
	case "lookup":
		cmdLookup(api, rest)
	case "vote":
		cmdVote(api, rest)
	case "remark":
		if err := cmdRemark(api, rest); err != nil {
			log.Fatalf("repclient: %v", err)
		}
	case "vendor":
		cmdVendor(api, rest)
	case "stats":
		cmdStats(api)
	default:
		log.Fatalf("repclient: unknown command %q", cmd)
	}
}

func cmdRegister(api *client.API, args []string) {
	fs := flag.NewFlagSet("register", flag.ExitOnError)
	user := fs.String("user", "", "username")
	pass := fs.String("pass", "", "password")
	email := fs.String("email", "", "e-mail address (hashed server-side)")
	fs.Parse(args)
	if *user == "" || *pass == "" || *email == "" {
		log.Fatal("repclient: register needs -user, -pass and -email")
	}
	// Fetch the anti-automation challenge. The CAPTCHA cannot be solved
	// from a CLI against a real deployment; servers run for development
	// accept registrations without one when -captcha=false.
	ch, err := api.Challenge(context.Background())
	if err != nil {
		log.Fatalf("repclient: %v", err)
	}
	req := wire.RegisterRequest{Username: *user, Password: *pass, Email: *email}
	if ch.PuzzleDifficulty > 0 {
		// The client puzzle is solvable by honest CPU work.
		puzzle := puzzleFromChallenge(ch)
		sol, hashes := puzzle.Solve()
		fmt.Printf("solved client puzzle (difficulty %d) in %d hashes\n", ch.PuzzleDifficulty, hashes)
		req.PuzzleNonce = ch.PuzzleNonce
		req.PuzzleSolution = sol
	}
	if err := api.Register(context.Background(), req); err != nil {
		log.Fatalf("repclient: register: %v", err)
	}
	fmt.Printf("registered %q — check the activation mail for your token\n", *user)
}

func cmdActivate(api *client.API, args []string) {
	fs := flag.NewFlagSet("activate", flag.ExitOnError)
	token := fs.String("token", "", "activation token")
	fs.Parse(args)
	if *token == "" {
		log.Fatal("repclient: activate needs -token")
	}
	user, err := api.Activate(context.Background(), *token)
	if err != nil {
		log.Fatalf("repclient: activate: %v", err)
	}
	fmt.Printf("account %q activated; you can log in now\n", user)
}

// metaForFile derives the §3.3 metadata for an arbitrary local file:
// content hash, name and size. Vendor/version live inside real PE
// resources, which plain files lack.
func metaForFile(path string) (core.SoftwareMeta, error) {
	content, err := os.ReadFile(path)
	if err != nil {
		return core.SoftwareMeta{}, err
	}
	return core.SoftwareMeta{
		ID:       core.ComputeSoftwareID(content),
		FileName: filepath.Base(path),
		FileSize: int64(len(content)),
	}, nil
}

func cmdLookup(api *client.API, args []string) {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	feeds := fs.String("feeds", "", "comma-separated expert feeds to consult")
	fs.Parse(args)
	if fs.NArg() < 1 {
		log.Fatal("repclient: lookup needs a file path")
	}
	meta, err := metaForFile(fs.Arg(0))
	if err != nil {
		log.Fatalf("repclient: %v", err)
	}
	var feedList []string
	if *feeds != "" {
		feedList = strings.Split(*feeds, ",")
	}
	rep, err := api.Lookup(context.Background(), meta, feedList...)
	if err != nil {
		log.Fatalf("repclient: lookup: %v", err)
	}
	fmt.Printf("id        %s\nknown     %v\n", meta.ID, rep.Known)
	if rep.Votes > 0 {
		fmt.Printf("score     %.2f from %d votes\nbehaviour %s\n", rep.Score, rep.Votes, rep.Behaviors)
	} else {
		fmt.Println("score     (unrated)")
	}
	if rep.Vendor != "" {
		fmt.Printf("vendor    %s (%.2f over %d programs)\n", rep.Vendor, rep.VendorScore, rep.VendorCount)
	}
	for _, c := range rep.Comments {
		fmt.Printf("comment   #%d [%s, trust %.0f] %s (+%d/-%d)\n", c.ID, c.User, c.AuthorTrust, c.Text, c.Positive, c.Negative)
	}
	for _, a := range rep.Advice {
		fmt.Printf("advice    [%s] score %.1f, %s — %s\n", a.Feed, a.Score, a.Behaviors, a.Note)
	}
}

func cmdVote(api *client.API, args []string) {
	fs := flag.NewFlagSet("vote", flag.ExitOnError)
	login := loginFlags(fs)
	score := fs.Int("score", 0, "score 1-10")
	comment := fs.String("comment", "", "optional comment")
	behaviors := fs.String("behaviors", "", "observed behaviours, e.g. displays-ads,tracks-usage")
	fs.Parse(args)
	if fs.NArg() < 1 {
		log.Fatal("repclient: vote needs a file path after the flags")
	}
	meta, err := metaForFile(fs.Arg(0))
	if err != nil {
		log.Fatalf("repclient: %v", err)
	}
	b, err := core.ParseBehavior(*behaviors)
	if err != nil {
		log.Fatalf("repclient: %v", err)
	}
	session, err := login(api)
	if err != nil {
		log.Fatalf("repclient: %v", err)
	}
	cid, err := api.Vote(context.Background(), session, meta, client.Rating{Score: *score, Behaviors: b, Comment: *comment})
	if err != nil {
		log.Fatalf("repclient: vote: %v", err)
	}
	fmt.Printf("vote recorded for %s", meta.FileName)
	if cid != 0 {
		fmt.Printf(" (comment #%d)", cid)
	}
	fmt.Println("\nnote: scores publish at the next 24-hour aggregation run")
}

// cmdRemark judges another user's comment, by the id lookup prints.
func cmdRemark(api *client.API, args []string) error {
	fs := flag.NewFlagSet("remark", flag.ExitOnError)
	login := loginFlags(fs)
	fs.Parse(args)
	id, err := strconv.ParseUint(strings.TrimPrefix(fs.Arg(0), "#"), 10, 64)
	if err != nil || fs.NArg() != 2 || fs.Arg(1) != "up" && fs.Arg(1) != "down" {
		return fmt.Errorf("remark needs a comment id and up or down after the flags")
	}
	session, err := login(api)
	if err != nil {
		return err
	}
	if err := api.Remark(context.Background(), session, id, fs.Arg(1) == "up"); err != nil {
		return fmt.Errorf("remark: %w", err)
	}
	fmt.Printf("remark recorded on comment #%d\n", id)
	return nil
}

// loginFlags adds -user and -pass to fs and returns the login they ask for.
func loginFlags(fs *flag.FlagSet) func(*client.API) (string, error) {
	user, pass := fs.String("user", "", "username"), fs.String("pass", "", "password")
	return func(api *client.API) (string, error) {
		if *user == "" || *pass == "" {
			return "", fmt.Errorf("%s needs -user and -pass", fs.Name())
		}
		session, err := api.Login(context.Background(), *user, *pass)
		if err != nil {
			return "", fmt.Errorf("login: %w", err)
		}
		return session, nil
	}
}

func cmdVendor(api *client.API, args []string) {
	if len(args) < 1 {
		log.Fatal("repclient: vendor needs a name")
	}
	rep, err := api.Vendor(context.Background(), args[0])
	if err != nil {
		log.Fatalf("repclient: vendor: %v", err)
	}
	if !rep.Known {
		fmt.Printf("vendor %q has no derived rating yet\n", args[0])
		return
	}
	fmt.Printf("vendor %s: %.2f over %d rated programs\n", rep.Vendor, rep.Score, rep.SoftwareCount)
}

func cmdStats(api *client.API) {
	st, err := api.Stats(context.Background())
	if err != nil {
		log.Fatalf("repclient: stats: %v", err)
	}
	fmt.Printf("users %d, software %d, ratings %d, comments %d, remarks %d\n",
		st.Users, st.Software, st.Ratings, st.Comments, st.Remarks)
}

// puzzleFromChallenge rebuilds the client puzzle from the wire form.
func puzzleFromChallenge(ch wire.ChallengeResponse) identity.Puzzle {
	return identity.Puzzle{Nonce: ch.PuzzleNonce, Difficulty: ch.PuzzleDifficulty}
}
