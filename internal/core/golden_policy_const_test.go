package core

// predictiveGolden and lfocGolden are the traces TestPolicyGoldenTrace
// recorded; see golden_policy_test.go.
const predictiveGolden = `== golden max-fairness ==
00 grow Unknown 4 4 false
00 stream Unknown 4 4 false
00 sleepy Donor 1 1 false
00 table Unknown 4 4 false
00 knee Donor 3 3 false
01 grow Receiver 5 5 false
01 stream Unknown 5 5 false
01 sleepy Donor 1 1 false
01 table Receiver 5 5 false
01 knee Keeper 3 3 false
02 grow Receiver 5 6 true
02 stream Unknown 6 6 false
02 sleepy Donor 1 1 false
02 table Receiver 5 6 true
02 knee Keeper 3 3 false
03 grow Receiver 6 6 false
03 stream Streaming 1 1 false
03 sleepy Donor 1 1 false
03 table Receiver 6 6 false
03 knee Keeper 3 3 false
04 grow Receiver 7 7 false
04 stream Streaming 1 1 false
04 sleepy Donor 1 1 false
04 table Receiver 7 7 false
04 knee Keeper 3 3 false
05 grow Keeper 7 7 false
05 stream Streaming 1 1 false
05 sleepy Donor 1 1 false
05 table Receiver 8 8 false
05 knee Keeper 3 3 false
06 grow Keeper 7 7 false
06 stream Streaming 1 1 false
06 sleepy Donor 1 1 false
06 table Receiver 8 9 true
06 knee Keeper 3 3 false
07 grow Keeper 7 7 false
07 stream Streaming 1 1 false
07 sleepy Donor 1 1 false
07 table Receiver 8 9 true
07 knee Keeper 3 3 false
08 grow Keeper 6 7 true
08 stream Streaming 1 1 false
08 sleepy Reclaim 3 3 false
08 table Receiver 7 9 true
08 knee Keeper 3 3 false
09 grow Keeper 6 6 false
09 stream Streaming 1 1 false
09 sleepy Unknown 3 4 true
09 table Receiver 7 8 true
09 knee Keeper 3 3 false
10 grow Keeper 6 6 false
10 stream Streaming 1 1 false
10 sleepy Unknown 3 4 true
10 table Receiver 7 8 true
10 knee Keeper 3 3 false
11 grow Keeper 6 6 false
11 stream Streaming 1 1 false
11 sleepy Unknown 3 4 true
11 table Receiver 7 8 true
11 knee Keeper 3 3 false
12 grow Keeper 6 6 false
12 stream Streaming 1 1 false
12 sleepy Unknown 3 4 true
12 table Receiver 7 8 true
12 knee Keeper 3 3 false
13 grow Keeper 6 6 false
13 stream Streaming 1 1 false
13 sleepy Unknown 3 4 true
13 table Receiver 7 8 true
13 knee Keeper 3 3 false
14 grow Keeper 6 6 false
14 stream Streaming 1 1 false
14 sleepy Unknown 3 4 true
14 table Receiver 7 8 true
14 knee Keeper 3 3 false
15 grow Keeper 6 6 false
15 stream Streaming 1 1 false
15 sleepy Unknown 3 4 true
15 table Receiver 7 8 true
15 knee Keeper 3 3 false
16 grow Keeper 6 6 false
16 stream Streaming 1 1 false
16 sleepy Unknown 4 4 false
16 table Receiver 6 6 false
16 knee Keeper 3 3 false
17 grow Keeper 6 6 false
17 stream Streaming 1 1 false
17 sleepy Receiver 4 5 true
17 table Receiver 6 6 false
17 knee Keeper 3 3 false
18 grow Keeper 6 6 false
18 stream Streaming 1 1 false
18 sleepy Receiver 4 5 true
18 table Receiver 6 6 false
18 knee Keeper 3 3 false
19 grow Keeper 6 6 false
19 stream Streaming 1 1 false
19 sleepy Receiver 4 5 true
19 table Receiver 6 6 false
19 knee Keeper 3 3 false
20 grow Keeper 6 6 false
20 stream Streaming 1 1 false
20 sleepy Reclaim 3 3 false
20 table Receiver 6 6 false
20 knee Keeper 3 3 false
21 grow Keeper 6 6 false
21 stream Streaming 1 1 false
21 sleepy Donor 1 1 false
21 table Receiver 6 6 false
21 knee Keeper 3 3 false
22 grow Keeper 6 6 false
22 stream Streaming 1 1 false
22 sleepy Donor 1 1 false
22 table Receiver 6 6 false
22 knee Keeper 3 3 false
23 grow Keeper 6 6 false
23 stream Streaming 1 1 false
23 sleepy Donor 1 1 false
23 table Receiver 6 6 false
23 knee Keeper 3 3 false
24 grow Keeper 6 6 false
24 stream Streaming 1 1 false
24 sleepy Donor 1 1 false
24 table Receiver 7 7 false
24 knee Keeper 3 3 false
25 grow Keeper 6 6 false
25 stream Streaming 1 1 false
25 sleepy Donor 1 1 false
25 table Receiver 8 8 false
25 knee Keeper 3 3 false
26 grow Keeper 6 6 false
26 stream Streaming 1 1 false
26 sleepy Donor 1 1 false
26 table Receiver 9 9 false
26 knee Keeper 3 3 false
27 grow Keeper 6 6 false
27 stream Streaming 1 1 false
27 sleepy Donor 1 1 false
27 table Receiver 9 10 true
27 knee Keeper 3 3 false
28 grow Keeper 6 6 false
28 stream Streaming 1 1 false
28 sleepy Donor 1 1 false
28 table Receiver 9 10 true
28 knee Keeper 3 3 false
29 grow Keeper 6 6 false
29 stream Streaming 1 1 false
29 sleepy Donor 1 1 false
29 table Receiver 9 10 true
29 knee Keeper 3 3 false
30 grow Keeper 6 6 false
30 stream Streaming 1 1 false
30 sleepy Donor 1 1 false
30 table Receiver 9 10 true
30 knee Keeper 3 3 false
31 grow Keeper 6 6 false
31 stream Streaming 1 1 false
31 sleepy Donor 1 1 false
31 table Receiver 9 10 true
31 knee Keeper 3 3 false
32 grow Keeper 6 6 false
32 stream Streaming 1 1 false
32 sleepy Donor 1 1 false
32 table Receiver 9 10 true
32 knee Keeper 3 3 false
33 grow Keeper 6 6 false
33 stream Streaming 1 1 false
33 sleepy Donor 1 1 false
33 table Receiver 9 10 true
33 knee Keeper 3 3 false
-- notes --
== golden max-performance ==
00 grow Unknown 4 4 false
00 stream Unknown 4 4 false
00 sleepy Donor 1 1 false
00 table Unknown 4 4 false
00 knee Donor 3 3 false
01 grow Receiver 5 5 false
01 stream Unknown 5 5 false
01 sleepy Donor 1 1 false
01 table Receiver 5 5 false
01 knee Keeper 3 3 false
02 grow Receiver 5 6 true
02 stream Unknown 6 6 false
02 sleepy Donor 1 1 false
02 table Receiver 5 6 true
02 knee Keeper 3 3 false
03 grow Receiver 6 6 false
03 stream Streaming 1 1 false
03 sleepy Donor 1 1 false
03 table Receiver 6 6 false
03 knee Keeper 3 3 false
04 grow Receiver 7 7 false
04 stream Streaming 1 1 false
04 sleepy Donor 1 1 false
04 table Receiver 7 7 false
04 knee Keeper 3 3 false
05 grow Keeper 7 7 false
05 stream Streaming 1 1 false
05 sleepy Donor 1 1 false
05 table Receiver 8 8 false
05 knee Keeper 3 3 false
06 grow Keeper 7 7 false
06 stream Streaming 1 1 false
06 sleepy Donor 1 1 false
06 table Receiver 8 9 true
06 knee Keeper 3 3 false
07 grow Keeper 7 7 false
07 stream Streaming 1 1 false
07 sleepy Donor 1 1 false
07 table Receiver 8 9 true
07 knee Keeper 3 3 false
08 grow Keeper 6 7 true
08 stream Streaming 1 1 false
08 sleepy Reclaim 3 3 false
08 table Receiver 7 9 true
08 knee Keeper 3 3 false
09 grow Keeper 6 6 false
09 stream Streaming 1 1 false
09 sleepy Unknown 3 4 true
09 table Receiver 7 8 true
09 knee Keeper 3 3 false
10 grow Keeper 6 6 false
10 stream Streaming 1 1 false
10 sleepy Unknown 3 4 true
10 table Receiver 7 8 true
10 knee Keeper 3 3 false
11 grow Keeper 6 6 false
11 stream Streaming 1 1 false
11 sleepy Unknown 3 4 true
11 table Receiver 7 8 true
11 knee Keeper 3 3 false
12 grow Keeper 5 6 true
12 stream Streaming 1 1 false
12 sleepy Unknown 3 4 true
12 table Receiver 8 8 false
12 knee Keeper 3 3 false
13 grow Keeper 4 5 true
13 stream Streaming 1 1 false
13 sleepy Unknown 3 4 true
13 table Receiver 8 9 true
13 knee Keeper 3 3 false
14 grow Keeper 3 4 true
14 stream Streaming 1 1 false
14 sleepy Unknown 4 4 false
14 table Receiver 8 9 true
14 knee Keeper 3 3 false
15 grow Keeper 3 3 false
15 stream Streaming 1 1 false
15 sleepy Receiver 5 5 false
15 table Receiver 8 9 true
15 knee Keeper 3 3 false
16 grow Keeper 4 3 false
16 stream Streaming 1 1 false
16 sleepy Receiver 6 6 false
16 table Receiver 6 6 false
16 knee Keeper 3 3 false
17 grow Keeper 7 4 false
17 stream Streaming 1 1 false
17 sleepy Keeper 3 6 true
17 table Receiver 6 6 false
17 knee Keeper 3 3 false
18 grow Keeper 4 7 true
18 stream Streaming 1 1 false
18 sleepy Keeper 6 3 false
18 table Receiver 6 6 false
18 knee Keeper 3 3 false
19 grow Keeper 4 4 false
19 stream Streaming 1 1 false
19 sleepy Keeper 6 6 false
19 table Receiver 6 6 false
19 knee Keeper 3 3 false
20 grow Keeper 7 4 false
20 stream Streaming 1 1 false
20 sleepy Reclaim 3 3 false
20 table Receiver 6 6 false
20 knee Keeper 3 3 false
21 grow Keeper 7 7 false
21 stream Streaming 1 1 false
21 sleepy Donor 1 1 false
21 table Receiver 6 6 false
21 knee Keeper 3 3 false
22 grow Keeper 7 7 false
22 stream Streaming 1 1 false
22 sleepy Donor 1 1 false
22 table Receiver 6 6 false
22 knee Keeper 3 3 false
23 grow Keeper 7 7 false
23 stream Streaming 1 1 false
23 sleepy Donor 1 1 false
23 table Receiver 6 6 false
23 knee Keeper 3 3 false
24 grow Keeper 7 7 false
24 stream Streaming 1 1 false
24 sleepy Donor 1 1 false
24 table Receiver 8 7 false
24 knee Keeper 3 3 false
25 grow Keeper 7 7 false
25 stream Streaming 1 1 false
25 sleepy Donor 1 1 false
25 table Receiver 8 9 true
25 knee Keeper 3 3 false
26 grow Keeper 7 7 false
26 stream Streaming 1 1 false
26 sleepy Donor 1 1 false
26 table Receiver 8 9 true
26 knee Keeper 3 3 false
27 grow Keeper 7 7 false
27 stream Streaming 1 1 false
27 sleepy Donor 1 1 false
27 table Receiver 8 9 true
27 knee Keeper 3 3 false
28 grow Keeper 7 7 false
28 stream Streaming 1 1 false
28 sleepy Donor 1 1 false
28 table Receiver 8 9 true
28 knee Keeper 3 3 false
29 grow Keeper 7 7 false
29 stream Streaming 1 1 false
29 sleepy Donor 1 1 false
29 table Receiver 8 9 true
29 knee Keeper 3 3 false
30 grow Keeper 7 7 false
30 stream Streaming 1 1 false
30 sleepy Donor 1 1 false
30 table Receiver 8 9 true
30 knee Keeper 3 3 false
31 grow Keeper 7 7 false
31 stream Streaming 1 1 false
31 sleepy Donor 1 1 false
31 table Receiver 8 9 true
31 knee Keeper 3 3 false
32 grow Keeper 7 7 false
32 stream Streaming 1 1 false
32 sleepy Donor 1 1 false
32 table Receiver 8 9 true
32 knee Keeper 3 3 false
33 grow Keeper 7 7 false
33 stream Streaming 1 1 false
33 sleepy Donor 1 1 false
33 table Receiver 8 9 true
33 knee Keeper 3 3 false
-- notes --
== cycle max-fairness ==
00 cycler=Unknown/4/4/false sleeper=Donor/1/1/false table=Unknown/4/4/false
01 cycler=Receiver/5/5/false sleeper=Donor/1/1/false table=Receiver/5/5/false
02 cycler=Receiver/6/6/false sleeper=Donor/1/1/false table=Receiver/6/6/false
03 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/7/7/false
04 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/8/8/false
05 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/9/9/false
06 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/10/10/false
07 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/11/11/false
08 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Receiver/11/12/true
09 cycler=Keeper/6/6/false sleeper=Unknown/3/4/true table=Receiver/11/12/true
10 cycler=Reclaim/3/3/false sleeper=Unknown/4/4/false table=Receiver/12/12/false
11 cycler=Unknown/4/4/false sleeper=Receiver/4/5/true table=Receiver/12/13/true
12 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
13 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
14 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
15 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
16 cycler=Receiver/5/5/false sleeper=Reclaim/3/3/false table=Receiver/12/13/true
17 cycler=Receiver/6/6/false sleeper=Donor/1/1/false table=Receiver/13/13/false
18 cycler=Receiver/6/7/true sleeper=Donor/1/1/false table=Keeper/13/13/false
19 cycler=Receiver/6/7/true sleeper=Donor/1/1/false table=Keeper/13/13/false
20 cycler=Reclaim/3/3/false sleeper=Donor/1/1/false table=Keeper/13/13/false
21 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/13/13/false
22 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/13/13/false
23 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/13/13/false
24 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/13/true
25 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
26 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
27 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
28 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
29 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
30 cycler=Reclaim/3/3/false sleeper=Keeper/4/4/false table=Keeper/11/11/false
31 cycler=Keeper/5/6/true sleeper=Keeper/4/4/false table=Keeper/11/11/false
32 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/11/false
33 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
34 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
35 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
36 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
37 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
38 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
39 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
40 cycler=Reclaim/3/3/false sleeper=Reclaim/3/3/false table=Keeper/11/11/false
41 cycler=Keeper/5/6/true sleeper=Keeper/4/4/false table=Keeper/11/11/false
42 cycler=Keeper/5/6/true sleeper=Keeper/4/4/false table=Keeper/11/11/false
43 cycler=Keeper/5/6/true sleeper=Keeper/4/4/false table=Keeper/11/11/false
44 cycler=Keeper/5/6/true sleeper=Keeper/4/4/false table=Keeper/11/11/false
45 cycler=Keeper/5/6/true sleeper=Keeper/4/4/false table=Keeper/11/11/false
46 cycler=Keeper/5/6/true sleeper=Keeper/4/4/false table=Keeper/11/11/false
47 cycler=Keeper/5/6/true sleeper=Keeper/4/4/false table=Keeper/11/11/false
48 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/11/false
49 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
50 cycler=Reclaim/6/3/false sleeper=Donor/3/1/false table=Keeper/11/11/false
51 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
52 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
53 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
54 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
55 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
56 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/11/false
57 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
58 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
59 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
60 cycler=Reclaim/6/3/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
61 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
62 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
63 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
64 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/11/false
65 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
66 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
67 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
68 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
69 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
70 cycler=Reclaim/6/3/false sleeper=Donor/3/1/false table=Keeper/11/11/false
71 cycler=Keeper/6/6/false sleeper=Donor/3/1/false table=Keeper/11/11/false
72 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/11/false
73 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
74 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
75 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
76 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
77 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
78 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
79 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
-- notes --
33 sleeper 0 3 1.0000 phase(-3)
34 sleeper 0 3 1.0000 phase(-3)
35 sleeper 0 3 1.0000 phase(-3)
36 sleeper 0 3 1.0000 phase(-3)
37 sleeper 0 3 1.0000 phase(-3)
38 sleeper 0 3 1.0000 phase(-3)
39 sleeper 0 3 1.0000 phase(-3)
40 sleeper 1 0 1.0000 phase(-3)
48 sleeper 1 0 1.0000 phase(-33)
49 sleeper 0 3 1.0000 phase(-3)
50 cycler 1 0 1.0000 phase(-1)
50 sleeper 0 3 1.0000 phase(-3)
51 sleeper 0 3 1.0000 phase(-3)
52 sleeper 0 3 1.0000 phase(-3)
53 sleeper 0 3 1.0000 phase(-3)
54 sleeper 0 3 1.0000 phase(-3)
55 sleeper 0 3 1.0000 phase(-3)
56 sleeper 1 0 1.0000 phase(-3)
60 cycler 1 0 1.0000 phase(-5)
64 sleeper 1 0 1.0000 phase(-33)
65 sleeper 0 3 1.0000 phase(-3)
66 sleeper 0 3 1.0000 phase(-3)
67 sleeper 0 3 1.0000 phase(-3)
68 sleeper 0 3 1.0000 phase(-3)
69 sleeper 0 3 1.0000 phase(-3)
70 cycler 1 0 1.0000 phase(-1)
70 sleeper 0 3 1.0000 phase(-3)
71 sleeper 0 3 1.0000 phase(-3)
72 sleeper 1 0 1.0000 phase(-3)
== cycle max-performance ==
00 cycler=Unknown/4/4/false sleeper=Donor/1/1/false table=Unknown/4/4/false
01 cycler=Receiver/5/5/false sleeper=Donor/1/1/false table=Receiver/5/5/false
02 cycler=Receiver/6/6/false sleeper=Donor/1/1/false table=Receiver/6/6/false
03 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/7/7/false
04 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/8/8/false
05 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/9/9/false
06 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/10/10/false
07 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/11/11/false
08 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Receiver/11/12/true
09 cycler=Keeper/6/6/false sleeper=Unknown/3/4/true table=Receiver/11/12/true
10 cycler=Reclaim/3/3/false sleeper=Unknown/4/4/false table=Receiver/12/12/false
11 cycler=Unknown/4/4/false sleeper=Receiver/4/5/true table=Receiver/12/13/true
12 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
13 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
14 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
15 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
16 cycler=Receiver/5/5/false sleeper=Reclaim/3/3/false table=Receiver/12/13/true
17 cycler=Receiver/6/6/false sleeper=Donor/1/1/false table=Receiver/13/13/false
18 cycler=Receiver/6/7/true sleeper=Donor/1/1/false table=Keeper/12/13/true
19 cycler=Receiver/7/7/false sleeper=Donor/1/1/false table=Keeper/12/12/false
20 cycler=Reclaim/3/3/false sleeper=Donor/1/1/false table=Keeper/12/12/false
21 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
22 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
23 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
24 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/12/true
25 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
26 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
27 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
28 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
29 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
30 cycler=Reclaim/3/3/false sleeper=Keeper/4/4/false table=Keeper/11/11/false
31 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/11/true
32 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/10/false
33 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/11/false
34 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
35 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
36 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
37 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
38 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
39 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
40 cycler=Reclaim/3/3/false sleeper=Reclaim/3/3/false table=Keeper/12/12/false
41 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/12/true
42 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
43 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
44 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
45 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
46 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
47 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
48 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/10/false
49 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/11/false
50 cycler=Reclaim/6/3/false sleeper=Donor/2/1/false table=Keeper/12/12/false
51 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
52 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
53 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
54 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
55 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
56 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/12/true
57 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
58 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
59 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
60 cycler=Reclaim/6/3/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
61 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
62 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
63 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
64 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/11/false
65 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/11/false
66 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
67 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
68 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
69 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
70 cycler=Reclaim/6/3/false sleeper=Donor/2/1/false table=Keeper/12/12/false
71 cycler=Keeper/6/6/false sleeper=Donor/2/1/false table=Keeper/12/12/false
72 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/12/true
73 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
74 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
75 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
76 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
77 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
78 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
79 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
-- notes --
33 sleeper 0 2 1.0000 phase(-3)
34 sleeper 0 2 1.0000 phase(-3)
35 sleeper 0 2 1.0000 phase(-3)
36 sleeper 0 2 1.0000 phase(-3)
37 sleeper 0 2 1.0000 phase(-3)
38 sleeper 0 2 1.0000 phase(-3)
39 sleeper 0 2 1.0000 phase(-3)
40 sleeper 1 0 1.0000 phase(-3)
48 sleeper 1 0 1.0000 phase(-33)
49 sleeper 0 2 1.0000 phase(-3)
50 cycler 1 0 1.0000 phase(-1)
50 sleeper 0 2 1.0000 phase(-3)
51 sleeper 0 2 1.0000 phase(-3)
52 sleeper 0 2 1.0000 phase(-3)
53 sleeper 0 2 1.0000 phase(-3)
54 sleeper 0 2 1.0000 phase(-3)
55 sleeper 0 2 1.0000 phase(-3)
56 sleeper 1 0 1.0000 phase(-3)
60 cycler 1 0 1.0000 phase(-5)
64 sleeper 1 0 1.0000 phase(-33)
65 sleeper 0 2 1.0000 phase(-3)
66 sleeper 0 2 1.0000 phase(-3)
67 sleeper 0 2 1.0000 phase(-3)
68 sleeper 0 2 1.0000 phase(-3)
69 sleeper 0 2 1.0000 phase(-3)
70 cycler 1 0 1.0000 phase(-1)
70 sleeper 0 2 1.0000 phase(-3)
71 sleeper 0 2 1.0000 phase(-3)
72 sleeper 1 0 1.0000 phase(-3)
`

const lfocGolden = `== golden max-fairness ==
00 grow Unknown 4 4 false
00 stream Unknown 4 4 false
00 sleepy Donor 1 1 false
00 table Unknown 4 4 false
00 knee Donor 3 3 false
01 grow Receiver 5 5 false
01 stream Unknown 5 5 false
01 sleepy Donor 1 1 false
01 table Receiver 5 5 false
01 knee Keeper 3 3 false
02 grow Receiver 5 6 true
02 stream Unknown 6 6 false
02 sleepy Donor 1 1 false
02 table Receiver 5 6 true
02 knee Keeper 3 3 false
03 grow Receiver 6 6 false
03 stream Streaming 1 1 false
03 sleepy Donor 1 1 false
03 table Receiver 6 6 false
03 knee Keeper 3 3 false
04 grow Receiver 7 7 false
04 stream Streaming 1 1 false
04 sleepy Donor 1 1 false
04 table Receiver 7 7 false
04 knee Keeper 3 3 false
05 grow Keeper 7 7 false
05 stream Streaming 1 1 false
05 sleepy Donor 1 1 false
05 table Receiver 8 8 false
05 knee Keeper 3 3 false
06 grow Keeper 7 7 false
06 stream Streaming 1 1 false
06 sleepy Donor 1 1 false
06 table Receiver 8 9 true
06 knee Keeper 3 3 false
07 grow Keeper 7 7 false
07 stream Streaming 1 1 false
07 sleepy Donor 1 1 false
07 table Receiver 8 9 true
07 knee Keeper 3 3 false
08 grow Keeper 6 7 true
08 stream Streaming 1 1 false
08 sleepy Reclaim 3 3 false
08 table Receiver 7 9 true
08 knee Keeper 3 3 false
09 grow Keeper 6 6 false
09 stream Streaming 1 1 false
09 sleepy Unknown 3 4 true
09 table Receiver 7 8 true
09 knee Keeper 3 3 false
10 grow Keeper 6 6 false
10 stream Streaming 1 1 false
10 sleepy Unknown 3 4 true
10 table Receiver 7 8 true
10 knee Keeper 3 3 false
11 grow Keeper 6 6 false
11 stream Streaming 1 1 false
11 sleepy Unknown 3 4 true
11 table Receiver 7 8 true
11 knee Keeper 3 3 false
12 grow Keeper 5 6 true
12 stream Streaming 1 1 false
12 sleepy Unknown 3 4 true
12 table Receiver 8 8 false
12 knee Keeper 3 3 false
13 grow Keeper 4 5 true
13 stream Streaming 1 1 false
13 sleepy Unknown 3 4 true
13 table Receiver 8 9 true
13 knee Keeper 3 3 false
14 grow Keeper 3 4 true
14 stream Streaming 1 1 false
14 sleepy Unknown 4 4 false
14 table Receiver 8 9 true
14 knee Keeper 3 3 false
15 grow Keeper 3 3 false
15 stream Streaming 1 1 false
15 sleepy Receiver 5 5 false
15 table Receiver 8 9 true
15 knee Keeper 3 3 false
16 grow Keeper 4 3 false
16 stream Streaming 1 1 false
16 sleepy Receiver 6 6 false
16 table Receiver 6 6 false
16 knee Keeper 3 3 false
17 grow Keeper 7 4 false
17 stream Streaming 1 1 false
17 sleepy Keeper 3 6 true
17 table Receiver 6 6 false
17 knee Keeper 3 3 false
18 grow Keeper 4 7 true
18 stream Streaming 1 1 false
18 sleepy Keeper 6 3 false
18 table Receiver 6 6 false
18 knee Keeper 3 3 false
19 grow Keeper 4 4 false
19 stream Streaming 1 1 false
19 sleepy Keeper 6 6 false
19 table Receiver 6 6 false
19 knee Keeper 3 3 false
20 grow Keeper 7 4 false
20 stream Streaming 1 1 false
20 sleepy Reclaim 3 3 false
20 table Receiver 6 6 false
20 knee Keeper 3 3 false
21 grow Keeper 7 7 false
21 stream Streaming 1 1 false
21 sleepy Donor 1 1 false
21 table Receiver 6 6 false
21 knee Keeper 3 3 false
22 grow Keeper 7 7 false
22 stream Streaming 1 1 false
22 sleepy Donor 1 1 false
22 table Receiver 6 6 false
22 knee Keeper 3 3 false
23 grow Keeper 7 7 false
23 stream Streaming 1 1 false
23 sleepy Donor 1 1 false
23 table Receiver 6 6 false
23 knee Keeper 3 3 false
24 grow Keeper 7 7 false
24 stream Streaming 1 1 false
24 sleepy Donor 1 1 false
24 table Receiver 8 7 false
24 knee Keeper 3 3 false
25 grow Keeper 7 7 false
25 stream Streaming 1 1 false
25 sleepy Donor 1 1 false
25 table Receiver 8 9 true
25 knee Keeper 3 3 false
26 grow Keeper 7 7 false
26 stream Streaming 1 1 false
26 sleepy Donor 1 1 false
26 table Receiver 8 9 true
26 knee Keeper 3 3 false
27 grow Keeper 7 7 false
27 stream Streaming 1 1 false
27 sleepy Donor 1 1 false
27 table Receiver 8 9 true
27 knee Keeper 3 3 false
28 grow Keeper 7 7 false
28 stream Streaming 1 1 false
28 sleepy Donor 1 1 false
28 table Receiver 8 9 true
28 knee Keeper 3 3 false
29 grow Keeper 7 7 false
29 stream Streaming 1 1 false
29 sleepy Donor 1 1 false
29 table Receiver 8 9 true
29 knee Keeper 3 3 false
30 grow Keeper 7 7 false
30 stream Streaming 1 1 false
30 sleepy Donor 1 1 false
30 table Receiver 8 9 true
30 knee Keeper 3 3 false
31 grow Keeper 7 7 false
31 stream Streaming 1 1 false
31 sleepy Donor 1 1 false
31 table Receiver 8 9 true
31 knee Keeper 3 3 false
32 grow Keeper 7 7 false
32 stream Streaming 1 1 false
32 sleepy Donor 1 1 false
32 table Receiver 8 9 true
32 knee Keeper 3 3 false
33 grow Keeper 7 7 false
33 stream Streaming 1 1 false
33 sleepy Donor 1 1 false
33 table Receiver 8 9 true
33 knee Keeper 3 3 false
-- notes --
00 grow 3 4 0.0000 unknown
00 stream 3 4 0.0000 unknown
00 sleepy 3 1 0.0000 unknown
00 table 3 4 0.0000 unknown
00 knee 3 3 0.0000 unknown
02 grow 3 5 0.0000 sensitive
02 table 3 5 0.0000 sensitive
03 stream 3 1 0.0000 streaming
16 sleepy 3 6 0.0000 sensitive
20 sleepy 3 3 0.0000 unknown
== golden max-performance ==
00 grow Unknown 4 4 false
00 stream Unknown 4 4 false
00 sleepy Donor 1 1 false
00 table Unknown 4 4 false
00 knee Donor 3 3 false
01 grow Receiver 5 5 false
01 stream Unknown 5 5 false
01 sleepy Donor 1 1 false
01 table Receiver 5 5 false
01 knee Keeper 3 3 false
02 grow Receiver 5 6 true
02 stream Unknown 6 6 false
02 sleepy Donor 1 1 false
02 table Receiver 5 6 true
02 knee Keeper 3 3 false
03 grow Receiver 6 6 false
03 stream Streaming 1 1 false
03 sleepy Donor 1 1 false
03 table Receiver 6 6 false
03 knee Keeper 3 3 false
04 grow Receiver 7 7 false
04 stream Streaming 1 1 false
04 sleepy Donor 1 1 false
04 table Receiver 7 7 false
04 knee Keeper 3 3 false
05 grow Keeper 7 7 false
05 stream Streaming 1 1 false
05 sleepy Donor 1 1 false
05 table Receiver 8 8 false
05 knee Keeper 3 3 false
06 grow Keeper 7 7 false
06 stream Streaming 1 1 false
06 sleepy Donor 1 1 false
06 table Receiver 8 9 true
06 knee Keeper 3 3 false
07 grow Keeper 7 7 false
07 stream Streaming 1 1 false
07 sleepy Donor 1 1 false
07 table Receiver 8 9 true
07 knee Keeper 3 3 false
08 grow Keeper 6 7 true
08 stream Streaming 1 1 false
08 sleepy Reclaim 3 3 false
08 table Receiver 7 9 true
08 knee Keeper 3 3 false
09 grow Keeper 6 6 false
09 stream Streaming 1 1 false
09 sleepy Unknown 3 4 true
09 table Receiver 7 8 true
09 knee Keeper 3 3 false
10 grow Keeper 6 6 false
10 stream Streaming 1 1 false
10 sleepy Unknown 3 4 true
10 table Receiver 7 8 true
10 knee Keeper 3 3 false
11 grow Keeper 6 6 false
11 stream Streaming 1 1 false
11 sleepy Unknown 3 4 true
11 table Receiver 7 8 true
11 knee Keeper 3 3 false
12 grow Keeper 5 6 true
12 stream Streaming 1 1 false
12 sleepy Unknown 3 4 true
12 table Receiver 8 8 false
12 knee Keeper 3 3 false
13 grow Keeper 4 5 true
13 stream Streaming 1 1 false
13 sleepy Unknown 3 4 true
13 table Receiver 8 9 true
13 knee Keeper 3 3 false
14 grow Keeper 3 4 true
14 stream Streaming 1 1 false
14 sleepy Unknown 4 4 false
14 table Receiver 8 9 true
14 knee Keeper 3 3 false
15 grow Keeper 3 3 false
15 stream Streaming 1 1 false
15 sleepy Receiver 5 5 false
15 table Receiver 8 9 true
15 knee Keeper 3 3 false
16 grow Keeper 4 3 false
16 stream Streaming 1 1 false
16 sleepy Receiver 6 6 false
16 table Receiver 6 6 false
16 knee Keeper 3 3 false
17 grow Keeper 7 4 false
17 stream Streaming 1 1 false
17 sleepy Keeper 3 6 true
17 table Receiver 6 6 false
17 knee Keeper 3 3 false
18 grow Keeper 4 7 true
18 stream Streaming 1 1 false
18 sleepy Keeper 6 3 false
18 table Receiver 6 6 false
18 knee Keeper 3 3 false
19 grow Keeper 4 4 false
19 stream Streaming 1 1 false
19 sleepy Keeper 6 6 false
19 table Receiver 6 6 false
19 knee Keeper 3 3 false
20 grow Keeper 7 4 false
20 stream Streaming 1 1 false
20 sleepy Reclaim 3 3 false
20 table Receiver 6 6 false
20 knee Keeper 3 3 false
21 grow Keeper 7 7 false
21 stream Streaming 1 1 false
21 sleepy Donor 1 1 false
21 table Receiver 6 6 false
21 knee Keeper 3 3 false
22 grow Keeper 7 7 false
22 stream Streaming 1 1 false
22 sleepy Donor 1 1 false
22 table Receiver 6 6 false
22 knee Keeper 3 3 false
23 grow Keeper 7 7 false
23 stream Streaming 1 1 false
23 sleepy Donor 1 1 false
23 table Receiver 6 6 false
23 knee Keeper 3 3 false
24 grow Keeper 7 7 false
24 stream Streaming 1 1 false
24 sleepy Donor 1 1 false
24 table Receiver 8 7 false
24 knee Keeper 3 3 false
25 grow Keeper 7 7 false
25 stream Streaming 1 1 false
25 sleepy Donor 1 1 false
25 table Receiver 8 9 true
25 knee Keeper 3 3 false
26 grow Keeper 7 7 false
26 stream Streaming 1 1 false
26 sleepy Donor 1 1 false
26 table Receiver 8 9 true
26 knee Keeper 3 3 false
27 grow Keeper 7 7 false
27 stream Streaming 1 1 false
27 sleepy Donor 1 1 false
27 table Receiver 8 9 true
27 knee Keeper 3 3 false
28 grow Keeper 7 7 false
28 stream Streaming 1 1 false
28 sleepy Donor 1 1 false
28 table Receiver 8 9 true
28 knee Keeper 3 3 false
29 grow Keeper 7 7 false
29 stream Streaming 1 1 false
29 sleepy Donor 1 1 false
29 table Receiver 8 9 true
29 knee Keeper 3 3 false
30 grow Keeper 7 7 false
30 stream Streaming 1 1 false
30 sleepy Donor 1 1 false
30 table Receiver 8 9 true
30 knee Keeper 3 3 false
31 grow Keeper 7 7 false
31 stream Streaming 1 1 false
31 sleepy Donor 1 1 false
31 table Receiver 8 9 true
31 knee Keeper 3 3 false
32 grow Keeper 7 7 false
32 stream Streaming 1 1 false
32 sleepy Donor 1 1 false
32 table Receiver 8 9 true
32 knee Keeper 3 3 false
33 grow Keeper 7 7 false
33 stream Streaming 1 1 false
33 sleepy Donor 1 1 false
33 table Receiver 8 9 true
33 knee Keeper 3 3 false
-- notes --
00 grow 3 4 0.0000 unknown
00 stream 3 4 0.0000 unknown
00 sleepy 3 1 0.0000 unknown
00 table 3 4 0.0000 unknown
00 knee 3 3 0.0000 unknown
02 grow 3 5 0.0000 sensitive
02 table 3 5 0.0000 sensitive
03 stream 3 1 0.0000 streaming
16 sleepy 3 6 0.0000 sensitive
20 sleepy 3 3 0.0000 unknown
== cycle max-fairness ==
00 cycler=Unknown/4/4/false sleeper=Donor/1/1/false table=Unknown/4/4/false
01 cycler=Receiver/5/5/false sleeper=Donor/1/1/false table=Receiver/5/5/false
02 cycler=Receiver/6/6/false sleeper=Donor/1/1/false table=Receiver/6/6/false
03 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/7/7/false
04 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/8/8/false
05 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/9/9/false
06 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/10/10/false
07 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/11/11/false
08 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Receiver/11/12/true
09 cycler=Keeper/6/6/false sleeper=Unknown/3/4/true table=Receiver/11/12/true
10 cycler=Reclaim/3/3/false sleeper=Unknown/4/4/false table=Receiver/12/12/false
11 cycler=Unknown/4/4/false sleeper=Receiver/4/5/true table=Receiver/12/13/true
12 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
13 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
14 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
15 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
16 cycler=Receiver/5/5/false sleeper=Reclaim/3/3/false table=Receiver/12/13/true
17 cycler=Receiver/6/6/false sleeper=Donor/1/1/false table=Receiver/13/13/false
18 cycler=Receiver/6/7/true sleeper=Donor/1/1/false table=Keeper/12/13/true
19 cycler=Receiver/7/7/false sleeper=Donor/1/1/false table=Keeper/12/12/false
20 cycler=Reclaim/3/3/false sleeper=Donor/1/1/false table=Keeper/12/12/false
21 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
22 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
23 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
24 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/12/true
25 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
26 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
27 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
28 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
29 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
30 cycler=Reclaim/3/3/false sleeper=Keeper/4/4/false table=Keeper/12/11/false
31 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/12/true
32 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/10/false
33 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/11/false
34 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
35 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
36 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
37 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
38 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
39 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
40 cycler=Reclaim/3/3/false sleeper=Reclaim/3/3/false table=Keeper/12/12/false
41 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/12/true
42 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
43 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
44 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
45 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
46 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
47 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
48 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/10/false
49 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/11/false
50 cycler=Reclaim/3/3/false sleeper=Donor/1/1/false table=Keeper/12/12/false
51 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
52 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
53 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
54 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
55 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
56 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/12/true
57 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
58 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
59 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
60 cycler=Reclaim/3/3/false sleeper=Keeper/4/4/false table=Keeper/12/11/false
61 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/12/true
62 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
63 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
64 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/10/false
65 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/11/false
66 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
67 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
68 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
69 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
70 cycler=Reclaim/3/3/false sleeper=Donor/1/1/false table=Keeper/12/12/false
71 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
72 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/12/true
73 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
74 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
75 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
76 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
77 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
78 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
79 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
-- notes --
00 cycler 3 4 0.0000 unknown
00 sleeper 3 1 0.0000 unknown
00 table 3 4 0.0000 unknown
02 cycler 3 6 0.0000 sensitive
02 table 3 6 0.0000 sensitive
10 cycler 3 3 0.0000 unknown
17 cycler 3 6 0.0000 sensitive
20 cycler 3 3 0.0000 unknown
21 cycler 3 6 0.0000 sensitive
30 cycler 3 3 0.0000 unknown
31 cycler 3 4 0.0000 sensitive
40 cycler 3 3 0.0000 unknown
41 cycler 3 4 0.0000 sensitive
50 cycler 3 3 0.0000 unknown
51 cycler 3 6 0.0000 sensitive
60 cycler 3 3 0.0000 unknown
61 cycler 3 4 0.0000 sensitive
70 cycler 3 3 0.0000 unknown
71 cycler 3 6 0.0000 sensitive
== cycle max-performance ==
00 cycler=Unknown/4/4/false sleeper=Donor/1/1/false table=Unknown/4/4/false
01 cycler=Receiver/5/5/false sleeper=Donor/1/1/false table=Receiver/5/5/false
02 cycler=Receiver/6/6/false sleeper=Donor/1/1/false table=Receiver/6/6/false
03 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/7/7/false
04 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/8/8/false
05 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/9/9/false
06 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/10/10/false
07 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Receiver/11/11/false
08 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Receiver/11/12/true
09 cycler=Keeper/6/6/false sleeper=Unknown/3/4/true table=Receiver/11/12/true
10 cycler=Reclaim/3/3/false sleeper=Unknown/4/4/false table=Receiver/12/12/false
11 cycler=Unknown/4/4/false sleeper=Receiver/4/5/true table=Receiver/12/13/true
12 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
13 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
14 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
15 cycler=Receiver/4/5/true sleeper=Receiver/4/5/true table=Receiver/12/13/true
16 cycler=Receiver/5/5/false sleeper=Reclaim/3/3/false table=Receiver/12/13/true
17 cycler=Receiver/6/6/false sleeper=Donor/1/1/false table=Receiver/13/13/false
18 cycler=Receiver/6/7/true sleeper=Donor/1/1/false table=Keeper/12/13/true
19 cycler=Receiver/7/7/false sleeper=Donor/1/1/false table=Keeper/12/12/false
20 cycler=Reclaim/3/3/false sleeper=Donor/1/1/false table=Keeper/12/12/false
21 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
22 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
23 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
24 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/12/true
25 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
26 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
27 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
28 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
29 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
30 cycler=Reclaim/3/3/false sleeper=Keeper/4/4/false table=Keeper/12/11/false
31 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/12/true
32 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/10/false
33 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/11/false
34 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
35 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
36 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
37 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
38 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
39 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
40 cycler=Reclaim/3/3/false sleeper=Reclaim/3/3/false table=Keeper/12/12/false
41 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/12/true
42 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
43 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
44 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
45 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
46 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
47 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
48 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/10/false
49 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/11/false
50 cycler=Reclaim/3/3/false sleeper=Donor/1/1/false table=Keeper/12/12/false
51 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
52 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
53 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
54 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
55 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
56 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/12/true
57 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
58 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
59 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
60 cycler=Reclaim/3/3/false sleeper=Keeper/4/4/false table=Keeper/12/11/false
61 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/12/true
62 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
63 cycler=Keeper/6/6/false sleeper=Keeper/4/4/false table=Keeper/10/10/false
64 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/10/false
65 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/11/false
66 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
67 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
68 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
69 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
70 cycler=Reclaim/3/3/false sleeper=Donor/1/1/false table=Keeper/12/12/false
71 cycler=Keeper/6/6/false sleeper=Donor/1/1/false table=Keeper/12/12/false
72 cycler=Keeper/6/6/false sleeper=Reclaim/3/3/false table=Keeper/11/12/true
73 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
74 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
75 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
76 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
77 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
78 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
79 cycler=Keeper/6/6/false sleeper=Keeper/3/4/true table=Keeper/11/11/false
-- notes --
00 cycler 3 4 0.0000 unknown
00 sleeper 3 1 0.0000 unknown
00 table 3 4 0.0000 unknown
02 cycler 3 6 0.0000 sensitive
02 table 3 6 0.0000 sensitive
10 cycler 3 3 0.0000 unknown
17 cycler 3 6 0.0000 sensitive
20 cycler 3 3 0.0000 unknown
21 cycler 3 6 0.0000 sensitive
30 cycler 3 3 0.0000 unknown
31 cycler 3 6 0.0000 sensitive
40 cycler 3 3 0.0000 unknown
41 cycler 3 6 0.0000 sensitive
50 cycler 3 3 0.0000 unknown
51 cycler 3 6 0.0000 sensitive
60 cycler 3 3 0.0000 unknown
61 cycler 3 6 0.0000 sensitive
70 cycler 3 3 0.0000 unknown
71 cycler 3 6 0.0000 sensitive
`
